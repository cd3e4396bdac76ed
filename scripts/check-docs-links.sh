#!/usr/bin/env bash
# Relative-link checker for README.md and docs/*.md, plus a dangling-name
# check for the docs Rust comments cite.
#
# Extracts every markdown link target that is not an absolute URL or an
# in-page anchor and verifies the referenced path exists relative to the
# linking file's directory (anchors on existing files are accepted;
# anchor names themselves are not validated).
#
# In the default run it also scans every .rs file under crates/, src/,
# tests/ and examples/ for `*.md` names and fails on any that resolves
# to no file at the repo root or under docs/ (a comment citing a doc
# that does not exist).
#
# Exits non-zero listing every broken link and dangling name, so
# documentation cannot rot silently.
#
# Usage: scripts/check-docs-links.sh [file-or-dir ...]
#        (defaults to README.md and docs/ at the repo root, plus the
#        Rust-comment scan)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
    targets=(README.md docs)
fi

files=()
for t in "${targets[@]}"; do
    if [ -d "$t" ]; then
        while IFS= read -r f; do files+=("$f"); done \
            < <(find "$t" -name '*.md' -type f | sort)
    elif [ -f "$t" ]; then
        files+=("$t")
    else
        echo "check-docs-links: no such file or directory: $t" >&2
        exit 2
    fi
done

broken=0
checked=0
for f in "${files[@]}"; do
    dir="$(dirname "$f")"
    # Markdown inline links: [text](target). One match per line is
    # enough for our docs; code fences with parens don't match the
    # ](...) shape unless they really are links.
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        checked=$((checked + 1))
        # GitHub resolves markdown links relative to the linking file's
        # directory — no repo-root fallback, or root-relative links that
        # render broken would pass the check.
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN: $f -> $target"
            broken=$((broken + 1))
        fi
    done < <(grep -o '](\([^)]*\))' "$f" 2>/dev/null | sed 's/^](//; s/)$//')
done

names=0
if [ $# -eq 0 ]; then
    while IFS= read -r hit; do
        name="${hit##*:}"
        names=$((names + 1))
        if [ ! -e "$name" ] && [ ! -e "docs/$name" ]; then
            echo "DANGLING: ${hit%:*} -> $name"
            broken=$((broken + 1))
        fi
    done < <(grep -rnoE --include='*.rs' '[A-Za-z0-9_./-]+\.md\b' \
        crates src tests examples 2>/dev/null)
fi

if [ "$broken" -gt 0 ]; then
    echo "check-docs-links: $broken broken link(s) or dangling doc name(s)" \
        "of $checked link(s) and $names Rust-comment name(s) checked" >&2
    exit 1
fi
echo "check-docs-links: $checked relative link(s) OK across ${#files[@]} file(s)," \
    "$names doc name(s) in Rust files resolve"

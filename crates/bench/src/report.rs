//! Console, CSV and JSON reporting for experiment output.
//!
//! Every experiment binary prints a table (the paper's "rows/series") and
//! optionally writes it to `EXPERIMENTS-data/<name>.csv` so the results can
//! be diffed across runs. Benchmark gates
//! additionally serialize tables as machine-readable JSON
//! ([`Table::to_json`] / [`write_json`]) so CI can diff a run against a
//! checked-in baseline (`scripts/check-bench-regression.sh`).

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple column-oriented table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (used as CSV file stem).
    pub name: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of formatted cells.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of `f64` values, formatted with `precision` decimals.
    pub fn row_f64(&mut self, values: &[f64], precision: usize) {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.precision$}")).collect();
        self.row(&cells);
    }

    /// Renders the table for the console, aligned.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// CSV serialization (headers + rows, comma separated, quoted when
    /// needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl Table {
    /// JSON serialization: `{"name": ..., "headers": [...], "rows":
    /// [[...], ...]}`. Cells that parse as finite `f64` are emitted as
    /// JSON numbers (so baseline checkers compare them numerically);
    /// everything else is emitted as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": {},\n", json_string(&self.name)));
        out.push_str("  \"headers\": [");
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| json_string(h))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("],\n  \"rows\": [\n");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_cell(c)).collect();
                format!("    [{}]", cells.join(", "))
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a table from the JSON produced by [`Table::to_json`].
    ///
    /// This is a minimal parser for that exact shape (string/number cells,
    /// no nested objects), not a general JSON reader — enough for the
    /// bench-regression gate to load its checked-in baseline without
    /// pulling a serde dependency into the offline workspace.
    pub fn from_json(json: &str) -> Result<Table, String> {
        let name = extract_json_string(json, "name")?;
        let headers_src = extract_json_array(json, "headers")?;
        let headers = parse_scalar_list(&headers_src)?;
        let rows_src = extract_json_array(json, "rows")?;
        let mut rows = Vec::new();
        for row_src in split_top_level_arrays(&rows_src)? {
            let cells = parse_scalar_list(&row_src)?;
            if cells.len() != headers.len() {
                return Err(format!(
                    "row width {} != header width {}",
                    cells.len(),
                    headers.len()
                ));
            }
            rows.push(cells);
        }
        Ok(Table {
            name,
            headers,
            rows,
        })
    }

    /// The cell at (`row`, column named `header`) parsed as `f64`, when
    /// present and numeric.
    pub fn cell_f64(&self, row: usize, header: &str) -> Option<f64> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.rows
            .get(row)?
            .get(col)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
    }

    /// Index of the row whose first cell equals `key`.
    pub fn row_by_key(&self, key: &str) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| r.first().map(String::as_str) == Some(key))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_cell(cell: &str) -> String {
    match cell.parse::<f64>() {
        // Canonical numeric form (what `parse` accepts back); rejects
        // NaN/inf, which JSON cannot carry.
        Ok(v) if v.is_finite() => cell.trim().to_string(),
        _ => json_string(cell),
    }
}

/// Decodes a JSON string body starting just *after* the opening quote.
/// Returns the decoded value and the byte length consumed, including the
/// closing quote. Handles exactly the escapes [`Table::to_json`] emits
/// (`\"`, `\\`, `\n`, `\r`, `\t`, and `\uXXXX` for control characters),
/// so the writer/parser pair round-trips every cell.
fn decode_json_string(src: &str) -> Result<(String, usize), String> {
    let mut out = String::new();
    let mut chars = src.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                        let digit = h
                            .to_digit(16)
                            .ok_or_else(|| format!("bad hex digit {h:?} in \\u escape"))?;
                        code = code * 16 + digit;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("\\u{code:04x} is not a scalar value"))?,
                    );
                }
                Some(e) => out.push(e),
                None => return Err("dangling escape".into()),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn extract_json_string(json: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\"");
    let at = json
        .find(&pat)
        .ok_or_else(|| format!("missing key {key}"))?;
    let rest = &json[at + pat.len()..];
    let colon = rest
        .find(':')
        .ok_or_else(|| format!("malformed key {key}"))?;
    let rest = rest[colon + 1..].trim_start();
    if !rest.starts_with('"') {
        return Err(format!("key {key} is not a string"));
    }
    decode_json_string(&rest[1..])
        .map(|(s, _)| s)
        .map_err(|e| format!("{e} for key {key}"))
}

/// Returns the source between the brackets of `"key": [ ... ]`, handling
/// nested arrays and strings.
fn extract_json_array(json: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\"");
    let at = json
        .find(&pat)
        .ok_or_else(|| format!("missing key {key}"))?;
    let rest = &json[at + pat.len()..];
    let open = rest
        .find('[')
        .ok_or_else(|| format!("key {key} is not an array"))?;
    let body = &rest[open + 1..];
    let mut depth = 1usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(body[..i].to_string());
                }
            }
            _ => {}
        }
    }
    Err(format!("unterminated array for key {key}"))
}

/// Splits `[...], [...], ...` into the inner sources of each top-level
/// array.
fn split_top_level_arrays(src: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in src.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' => {
                if depth == 0 {
                    start = i + 1;
                }
                depth += 1;
            }
            ']' => {
                if depth == 0 {
                    return Err("unbalanced brackets".into());
                }
                depth -= 1;
                if depth == 0 {
                    out.push(src[start..i].to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unbalanced brackets".into());
    }
    Ok(out)
}

/// Parses a comma-separated list of JSON strings / numbers into cells.
fn parse_scalar_list(src: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut rest = src.trim_start();
    while !rest.is_empty() {
        if let Some(body) = rest.strip_prefix('"') {
            let (val, used) = decode_json_string(body)?;
            out.push(val);
            rest = rest[1 + used..].trim_start();
        } else {
            let stop = rest.find(',').unwrap_or(rest.len());
            let token = rest[..stop].trim();
            if token.is_empty() {
                return Err("empty cell".into());
            }
            token
                .parse::<f64>()
                .map_err(|_| format!("bad number {token:?}"))?;
            out.push(token.to_string());
            rest = &rest[stop..];
        }
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("trailing garbage {rest:?}"));
        }
    }
    Ok(out)
}

/// Writes a table to `<dir>/<table.name>.csv`, creating the directory.
pub fn write_csv(table: &Table, dir: &Path) -> std::io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", table.name));
    let mut f = fs::File::create(&path)?;
    f.write_all(table.to_csv().as_bytes())?;
    Ok(path)
}

/// Writes a table as JSON to `path` (e.g. the checked-in
/// `BENCH_position.json` baseline), creating parent directories.
pub fn write_json(table: &Table, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut f = fs::File::create(path)?;
    f.write_all(table.to_json().as_bytes())
}

/// The default output directory for experiment CSVs.
pub fn data_dir() -> std::path::PathBuf {
    std::env::var_os("CHRONOS_DATA_DIR")
        .map(Into::into)
        .unwrap_or_else(|| std::path::PathBuf::from("EXPERIMENTS-data"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("demo", &["metric", "value"]);
        t.row(&["median".into(), "0.47".into()]);
        t.row_f64(&[95.0, 1.96], 2);
        let rendered = t.render();
        assert!(rendered.contains("median"));
        assert!(rendered.contains("0.47"));
        let csv = t.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("95.00,1.96"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("esc", &["a", "b"]);
        t.row(&["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_roundtrip_preserves_cells() {
        let mut t = Table::new("BENCH_demo", &["scenario", "median_err_m", "note"]);
        t.row(&["los".into(), "0.42".into(), "free space".into()]);
        t.row(&["nlos, walled".into(), "1.05".into(), "say \"hi\"".into()]);
        let json = t.to_json();
        assert!(json.contains("\"BENCH_demo\""));
        assert!(json.contains("0.42"), "{json}");
        let back = Table::from_json(&json).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.headers, t.headers);
        assert_eq!(back.rows, t.rows);
        assert_eq!(back.cell_f64(0, "median_err_m"), Some(0.42));
        assert_eq!(back.cell_f64(0, "scenario"), None);
        assert_eq!(back.row_by_key("nlos, walled"), Some(1));
        assert_eq!(back.row_by_key("missing"), None);
    }

    #[test]
    fn json_roundtrip_decodes_control_char_escapes() {
        // to_json emits \uXXXX for control characters; from_json must
        // decode them or the documented roundtrip silently corrupts keys.
        let mut t = Table::new("esc\u{7}name", &["k"]);
        t.row(&["bell\u{7}cell".into()]);
        let json = t.to_json();
        assert!(json.contains("\\u0007"), "{json}");
        let back = Table::from_json(&json).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.rows, t.rows);
        assert_eq!(back.row_by_key("bell\u{7}cell"), Some(0));
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        assert!(Table::from_json("{}").is_err());
        assert!(Table::from_json("{\"name\": \"x\", \"headers\": [\"a\"]}").is_err());
        let mismatched = "{\"name\": \"x\", \"headers\": [\"a\", \"b\"], \"rows\": [[1]]}";
        assert!(Table::from_json(mismatched).is_err());
    }

    #[test]
    fn write_json_roundtrip() {
        let mut t = Table::new("json_roundtrip", &["x"]);
        t.row(&["1.5".into()]);
        let path = std::env::temp_dir().join("chronos_bench_test_BENCH.json");
        write_json(&t, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let back = Table::from_json(&content).unwrap();
        assert_eq!(back.rows, t.rows);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn write_csv_roundtrip() {
        let mut t = Table::new("roundtrip_test", &["x"]);
        t.row(&["1".into()]);
        let dir = std::env::temp_dir().join("chronos_bench_test");
        let path = write_csv(&t, &dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x\n1\n");
        let _ = std::fs::remove_file(path);
    }
}

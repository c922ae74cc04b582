//! Golden-report serialization, diffing, and machine-checkable shape
//! assertions.
//!
//! Every experiment's rendered table is captured as a [`GoldenDoc`] —
//! the column headers, every cell, and any trailer values (the
//! headline geomeans) — and serialized to a committed `goldens/*.json`
//! file. `repro goldens check` re-runs the experiments and diffs the
//! fresh docs cell by cell against the committed ones;
//! `repro goldens bless` regenerates them after an intentional model
//! change.
//!
//! The documents double as executable paper claims:
//! [`GoldenDoc::shape_violations`] asserts the machine-level shapes the
//! evaluation leans on (irregular-subset geomean band, gemm parity,
//! dtree multicast savings) independently of the exact cell values, so
//! a blessed-but-broken golden still fails the gate.
//!
//! The container has no JSON dependency, so the format is hand-rolled:
//! a single object of string/array values (see [`GoldenDoc::to_json`]),
//! parsed back by a small recursive-descent reader.

use crate::Table;

/// One experiment's table, in diffable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDoc {
    /// Experiment id (`fig_overall`, ...).
    pub id: String,
    /// Scale the experiment ran at (`tiny` / `small`).
    pub scale: String,
    /// Table column headers.
    pub headers: Vec<String>,
    /// Table cells, row-major, exactly as rendered.
    pub rows: Vec<Vec<String>>,
    /// Non-table outputs rendered alongside (e.g. the headline
    /// geomeans), as ordered `(key, displayed value)` pairs.
    pub extras: Vec<(String, String)>,
}

impl GoldenDoc {
    /// Builds a doc from a rendered table plus trailer values.
    pub fn new(id: &str, scale: &str, table: &Table, extras: Vec<(String, String)>) -> Self {
        GoldenDoc {
            id: id.to_string(),
            scale: scale.to_string(),
            headers: table.headers().to_vec(),
            rows: table.rows().to_vec(),
            extras,
        }
    }

    /// Rebuilds the renderable table.
    pub fn table(&self) -> Table {
        Table::from_parts(self.headers.clone(), self.rows.clone())
    }

    /// Looks up an extra by key.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First cell of each row (the row labels).
    fn row_label(&self, i: usize) -> &str {
        self.rows[i].first().map_or("", |c| c.as_str())
    }

    /// Finds the cell at (row labelled `label`, column named `col`).
    fn cell(&self, label: &str, col: &str) -> Option<&str> {
        let c = self.headers.iter().position(|h| h == col)?;
        self.rows
            .iter()
            .find(|r| r.first().is_some_and(|l| l == label))
            .and_then(|r| r.get(c))
            .map(|s| s.as_str())
    }

    // ------------------------------------------------------------- diff

    /// Compares `self` (the committed golden) against a freshly
    /// generated doc, returning one readable message per divergent
    /// cell (empty when identical).
    pub fn diff(&self, current: &GoldenDoc) -> Vec<String> {
        let mut out = Vec::new();
        let ctx = format!("{} ({})", self.id, self.scale);
        if self.headers != current.headers {
            out.push(format!(
                "{ctx}: headers changed: golden {:?} vs current {:?}",
                self.headers, current.headers
            ));
            return out; // cell positions are meaningless now
        }
        if self.rows.len() != current.rows.len() {
            out.push(format!(
                "{ctx}: row count changed: golden {} vs current {}",
                self.rows.len(),
                current.rows.len()
            ));
        }
        for (i, (g, c)) in self.rows.iter().zip(&current.rows).enumerate() {
            for (col, (gv, cv)) in self.headers.iter().zip(g.iter().zip(c)) {
                if gv != cv {
                    out.push(format!(
                        "{ctx}: row {i} '{}', col '{col}': golden '{gv}' != current '{cv}'",
                        self.row_label(i)
                    ));
                }
            }
        }
        for (k, gv) in &self.extras {
            match current.extra(k) {
                Some(cv) if cv == gv => {}
                Some(cv) => out.push(format!(
                    "{ctx}: extra '{k}': golden '{gv}' != current '{cv}'"
                )),
                None => out.push(format!("{ctx}: extra '{k}' missing from current run")),
            }
        }
        for (k, _) in &current.extras {
            if self.extra(k).is_none() {
                out.push(format!("{ctx}: extra '{k}' not present in golden"));
            }
        }
        out
    }

    // -------------------------------------------- shape assertions

    /// Checks the machine-level shapes the paper-facing claims rest
    /// on, independent of exact cell values:
    ///
    /// * `fig_overall`: the irregular-subset geomean sits inside the
    ///   claimed band, and `gemm` — a regular workload with nothing for
    ///   TaskStream to recover — stays at parity (`1.00x`);
    /// * `fig_noc`: multicast saves at least the claimed fraction of
    ///   `dtree`'s DRAM reads.
    ///
    /// Experiments without claims return no violations.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let ctx = format!("{} ({})", self.id, self.scale);
        let tiny = self.scale == "tiny";
        match self.id.as_str() {
            "fig_overall" => {
                // speedup bands: wide enough to absorb model tuning,
                // tight enough that a collapsed mechanism fails
                let (lo, hi) = if tiny { (1.2, 3.5) } else { (1.4, 3.0) };
                match self.cell("geomean (irregular)", "speedup").map(parse_x) {
                    Some(Some(g)) if g >= lo && g <= hi => {}
                    Some(Some(g)) => out.push(format!(
                        "{ctx}: irregular geomean {g:.2}x outside the claimed band [{lo}x, {hi}x]"
                    )),
                    _ => out.push(format!("{ctx}: no parsable 'geomean (irregular)' speedup")),
                }
                match self.cell("gemm", "speedup") {
                    Some("1.00x") => {}
                    Some(v) => out.push(format!(
                        "{ctx}: gemm speedup '{v}' != '1.00x' — a regular workload must stay at parity"
                    )),
                    None => out.push(format!("{ctx}: no gemm row")),
                }
            }
            "fig_noc" => {
                // multicast recovery of dtree's shared node reads
                let min = if tiny { 40.0 } else { 50.0 };
                match self.cell("dtree", "saved").map(parse_pct) {
                    Some(Some(p)) if p >= min => {}
                    Some(Some(p)) => out.push(format!(
                        "{ctx}: dtree multicast saves only {p:.0}% of DRAM reads (claim: >= {min:.0}%)"
                    )),
                    _ => out.push(format!("{ctx}: no parsable dtree 'saved' cell")),
                }
            }
            "fig_faults" => {
                // graceful degradation: at every nonzero fault rate
                // Delta completes and loses strictly fewer cycles than
                // the no-recovery baseline (wedged = lost everything)
                for row in &self.rows {
                    let rate = row.first().map_or("", |c| c.as_str());
                    if rate.is_empty() || rate == "0.000" {
                        continue;
                    }
                    let cell = |col: &str| {
                        self.headers
                            .iter()
                            .position(|h| h == col)
                            .and_then(|c| row.get(c))
                            .map(|s| s.as_str())
                    };
                    let delta_lost = cell("delta lost").and_then(|v| v.parse::<u64>().ok());
                    match (delta_lost, cell("static lost")) {
                        (None, _) => out.push(format!(
                            "{ctx}: rate {rate}: Delta did not complete with a parsable cycle loss"
                        )),
                        (Some(_), Some("wedged")) => {}
                        (Some(d), Some(s)) => match s.parse::<u64>() {
                            Ok(s) if d < s => {}
                            Ok(s) => out.push(format!(
                                "{ctx}: rate {rate}: Delta lost {d} cycles, not strictly fewer \
                                 than the baseline's {s}"
                            )),
                            Err(_) => out.push(format!(
                                "{ctx}: rate {rate}: unparsable 'static lost' cell '{s}'"
                            )),
                        },
                        (Some(_), None) => {
                            out.push(format!("{ctx}: rate {rate}: no 'static lost' cell"))
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    // ------------------------------------------------------------- json

    /// Serializes to the committed golden format.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        s.push_str(&format!("  \"scale\": {},\n", json_str(&self.scale)));
        s.push_str(&format!(
            "  \"headers\": [{}],\n",
            self.headers
                .iter()
                .map(|h| json_str(h))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            s.push_str(&format!(
                "    [{}]{comma}\n",
                row.iter()
                    .map(|c| json_str(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"extras\": [\n");
        for (i, (k, v)) in self.extras.iter().enumerate() {
            let comma = if i + 1 < self.extras.len() { "," } else { "" };
            s.push_str(&format!("    [{}, {}]{comma}\n", json_str(k), json_str(v)));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a committed golden file.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing/ill-typed
    /// field.
    pub fn from_json(text: &str) -> Result<GoldenDoc, String> {
        let value = Parser::new(text).parse()?;
        let obj = value.as_obj().ok_or("top level must be an object")?;
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{name}'"))
        };
        let str_field = |name: &str| -> Result<String, String> {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field '{name}' must be a string"))
        };
        let str_list = |v: &Json, what: &str| -> Result<Vec<String>, String> {
            v.as_arr()
                .ok_or_else(|| format!("{what} must be an array"))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{what} must contain strings"))
                })
                .collect()
        };
        let headers = str_list(field("headers")?, "'headers'")?;
        let rows = field("rows")?
            .as_arr()
            .ok_or("'rows' must be an array")?
            .iter()
            .map(|r| str_list(r, "'rows' entries"))
            .collect::<Result<Vec<_>, _>>()?;
        let extras = field("extras")?
            .as_arr()
            .ok_or("'extras' must be an array")?
            .iter()
            .map(|e| {
                let pair = str_list(e, "'extras' entries")?;
                match <[String; 2]>::try_from(pair) {
                    Ok([k, v]) => Ok((k, v)),
                    Err(_) => Err("'extras' entries must be [key, value] pairs".to_string()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(GoldenDoc {
            id: str_field("id")?,
            scale: str_field("scale")?,
            headers,
            rows,
            extras,
        })
    }
}

/// Parses a `"1.58x"`-style ratio cell.
pub fn parse_x(s: &str) -> Option<f64> {
    s.strip_suffix('x')?.parse().ok()
}

/// Parses a `"73%"`-style percentage cell.
pub fn parse_pct(s: &str) -> Option<f64> {
    s.strip_suffix('%')?.parse().ok()
}

/// Escapes and quotes one JSON string. Non-ASCII text (the timeline
/// sparklines) passes through as raw UTF-8. Shared with the Perfetto
/// trace writer (`crate::trace_report`).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The sliver of JSON the golden format uses: strings, arrays, and
/// string-keyed objects. Numbers are deliberately absent — everything
/// numeric is encoded as a string by the writers.
enum Json {
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Byte-indexed recursive-descent parser for the strings-only JSON
/// subset. Operates directly on the UTF-8 bytes (goldens are
/// ASCII-heavy; multi-byte sequences only ever appear
/// inside string literals, where their bytes are >= 0x80 and can never
/// be mistaken for a quote or backslash), with a copy-free fast path
/// for escape-free strings — the overwhelmingly common case.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected '{}' at byte {}, got '{}'",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            c => Err(format!(
                "unexpected '{}' at byte {} (goldens hold only strings, arrays, objects)",
                c as char, self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes — the literal is a verbatim slice.
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string literal")?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        // Slow path: unescape into a scratch buffer.
        let mut out = self.bytes[start..self.pos].to_vec();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string literal")?;
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into())
                }
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape sequence")?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            self.pos = end;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            let ch = char::from_u32(code).ok_or("bad \\u code point")?;
                            out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                b => out.push(b),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                c => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got '{}'",
                        self.pos, c as char
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                c => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got '{}'",
                        self.pos, c as char
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenDoc {
        let mut t = Table::new(&["workload", "speedup"]);
        t.row(vec!["spmv".into(), "1.40x".into()]);
        t.row(vec!["a \"quoted\"\\name".into(), "▁▂█".into()]);
        GoldenDoc::new(
            "fig_test",
            "tiny",
            &t,
            vec![("geomean".into(), "1.58x".into())],
        )
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let doc = sample();
        let back = GoldenDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn identical_docs_have_no_diff() {
        assert!(sample().diff(&sample()).is_empty());
    }

    #[test]
    fn cell_drift_is_reported_per_cell() {
        let golden = sample();
        let mut current = sample();
        current.rows[0][1] = "1.39x".into();
        let d = golden.diff(&current);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("row 0 'spmv'"), "got: {}", d[0]);
        assert!(d[0].contains("'1.40x' != current '1.39x'"), "got: {}", d[0]);
    }

    #[test]
    fn extra_drift_is_reported() {
        let golden = sample();
        let mut current = sample();
        current.extras[0].1 = "1.60x".into();
        let d = golden.diff(&current);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("extra 'geomean'"), "got: {}", d[0]);
    }

    #[test]
    fn header_change_short_circuits() {
        let golden = sample();
        let mut current = sample();
        current.headers[1] = "ratio".into();
        let d = golden.diff(&current);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("headers changed"));
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(parse_x("1.58x"), Some(1.58));
        assert_eq!(parse_x("1.58"), None);
        assert_eq!(parse_pct("73%"), Some(73.0));
        assert_eq!(parse_pct("n/a"), None);
    }

    #[test]
    fn shape_check_flags_gemm_drift() {
        let mut t = Table::new(&["workload", "speedup"]);
        t.row(vec!["gemm".into(), "1.07x".into()]);
        t.row(vec!["geomean (irregular)".into(), "1.80x".into()]);
        let doc = GoldenDoc::new("fig_overall", "small", &t, vec![]);
        let v = doc.shape_violations();
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("gemm"));
    }

    #[test]
    fn shape_check_flags_collapsed_geomean() {
        let mut t = Table::new(&["workload", "speedup"]);
        t.row(vec!["gemm".into(), "1.00x".into()]);
        t.row(vec!["geomean (irregular)".into(), "1.05x".into()]);
        let doc = GoldenDoc::new("fig_overall", "small", &t, vec![]);
        let v = doc.shape_violations();
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert!(v[0].contains("irregular geomean"));
    }

    #[test]
    fn shape_check_passes_claimed_values() {
        let mut t = Table::new(&["workload", "speedup"]);
        t.row(vec!["gemm".into(), "1.00x".into()]);
        t.row(vec!["geomean (irregular)".into(), "1.80x".into()]);
        let doc = GoldenDoc::new("fig_overall", "small", &t, vec![]);
        assert!(doc.shape_violations().is_empty());

        let mut t = Table::new(&["workload", "saved"]);
        t.row(vec!["dtree".into(), "73%".into()]);
        let doc = GoldenDoc::new("fig_noc", "small", &t, vec![]);
        assert!(doc.shape_violations().is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(GoldenDoc::from_json("{").is_err());
        assert!(GoldenDoc::from_json("[]").is_err());
        assert!(GoldenDoc::from_json("{\"id\": \"x\"}").is_err());
        assert!(GoldenDoc::from_json("{\"id\": 3}").is_err());
    }
}

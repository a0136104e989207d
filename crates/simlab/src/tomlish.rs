//! `tomlish` — the workspace's one TOML-subset parser.
//!
//! Two consumers share it: `fairlint` loads `fairlint.toml` (strict) and
//! reads `[workspace] members` and scenario ids (lenient — lines it does
//! not understand, such as inline tables, are skipped), and `fair-scenario`
//! compiles `scenarios/*.toml` experiment families (strict — a malformed
//! line is a span-carrying [`ParseError`] so authors get `file:line`
//! diagnostics). One parser, one set of
//! quirks, instead of two hand-rolled readers drifting apart.
//!
//! The subset: `[section]` headers, `key = value` pairs, `#` comments
//! (quote-aware), and values that are quoted strings, booleans, integers,
//! floats, or flat arrays of those (arrays may span lines). Keys are
//! flattened to `section.key`. No nested tables, no inline tables, no
//! escapes inside strings — deliberately small enough to audit.

/// A parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `key = "…"`
    Str(String),
    /// `key = true` / `false`
    Bool(bool),
    /// `key = 3`
    Int(i64),
    /// `key = 0.25`
    Float(f64),
    /// `key = [v, v, …]` (flat; elements are scalars)
    List(Vec<Value>),
}

impl Value {
    /// Human-readable type label for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::List(_) => "array",
        }
    }

    /// The string content, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as `f64` (integers widen losslessly for the
    /// magnitudes a config file holds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }
}

/// One `key = value` pair with the 1-based line it started on.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// Flattened `section.key`.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based line of the `key =` (multi-line arrays anchor here).
    pub line: usize,
}

/// A strict-mode parse failure, anchored to its line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line the failure occurred on.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Strict parse: every non-blank, non-comment line must be a section
/// header or a well-formed `key = value`, and every value must parse.
///
/// # Errors
///
/// Returns the first malformed line as a span-carrying [`ParseError`].
pub fn parse(src: &str) -> Result<Vec<Item>, ParseError> {
    walk(src, Mode::Strict)
}

/// Lenient parse: skips lines and values it cannot understand, for
/// files outside this parser's subset (a `Cargo.toml`) or read only for
/// one key (a scenario's id).
pub fn parse_lenient(src: &str) -> Vec<Item> {
    // Lenient mode never returns Err; swallow unparseable lines.
    walk(src, Mode::Lenient).unwrap_or_default()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Strict,
    Lenient,
}

fn walk(src: &str, mode: Mode) -> Result<Vec<Item>, ParseError> {
    let strict = mode == Mode::Strict;
    let mut out = Vec::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate();
    while let Some((idx, raw_line)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if strict && h.trim().is_empty() {
                return Err(ParseError {
                    line: line_no,
                    msg: "empty section header".to_string(),
                });
            }
            section = h.trim().to_string();
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            if strict {
                return Err(ParseError {
                    line: line_no,
                    msg: format!("expected `key = value` or `[section]`, found `{line}`"),
                });
            }
            continue;
        };
        let name = k.trim();
        if strict && name.is_empty() {
            return Err(ParseError {
                line: line_no,
                msg: "missing key before `=`".to_string(),
            });
        }
        let key = if section.is_empty() {
            name.to_string()
        } else {
            format!("{section}.{name}")
        };
        // A `[` with no closing `]` on the same line opens a multi-line
        // array: keep consuming (comment-stripped) lines until it closes.
        let mut value = v.trim().to_string();
        let mut unterminated = false;
        while value.starts_with('[') && !value.ends_with(']') {
            let Some((_, next)) = lines.next() else {
                unterminated = true;
                break;
            };
            value.push_str(strip_comment(next).trim());
        }
        if unterminated {
            if strict {
                return Err(ParseError {
                    line: line_no,
                    msg: format!("array for `{key}` never closes (missing `]`)"),
                });
            }
            continue;
        }
        match parse_value(&value, mode) {
            Ok(Some(val)) => out.push(Item {
                key,
                value: val,
                line: line_no,
            }),
            Ok(None) => {} // lenient: skip what we cannot understand
            Err(msg) => {
                if strict {
                    return Err(ParseError { line: line_no, msg });
                }
            }
        }
    }
    Ok(out)
}

/// A `#` outside quotes starts a comment.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `Ok(None)` means "skip this item" and is only produced in lenient
/// mode; strict mode turns every unparseable value into `Err`.
fn parse_value(v: &str, mode: Mode) -> Result<Option<Value>, String> {
    if let Some(inner) = v.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err("unterminated array".to_string());
        };
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            match parse_scalar(part) {
                Some(val) => items.push(val),
                None if mode == Mode::Lenient => {} // skip junk elements
                None => return Err(format!("unparseable array element `{part}`")),
            }
        }
        return Ok(Some(Value::List(items)));
    }
    match parse_scalar(v) {
        Some(val) => Ok(Some(val)),
        None if mode == Mode::Lenient => Ok(None),
        None => Err(format!(
            "unparseable value `{v}` (want a quoted string, boolean, number, or array)"
        )),
    }
}

fn parse_scalar(v: &str) -> Option<Value> {
    if v == "true" {
        return Some(Value::Bool(true));
    }
    if v == "false" {
        return Some(Value::Bool(false));
    }
    if let Ok(n) = v.parse::<i64>() {
        return Some(Value::Int(n));
    }
    // Floats must *look* numeric before f64::parse gets a say, so bare
    // words like `inf`/`nan` stay unparseable rather than smuggling
    // non-finite values into configs.
    if v.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+' || c == '.') {
        if let Ok(x) = v.parse::<f64>() {
            return Some(Value::Float(x));
        }
    }
    let s = v.strip_prefix('"')?.strip_suffix('"')?;
    Some(Value::Str(s.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_parses_sections_scalars_and_arrays() {
        let items = parse(
            "# header\n[scenario]\nid = \"s_x\"\nn = 3\nrate = 0.25\nok = true\n\n[sweep]\nxs = [1, 2.5, \"a\"]\n",
        )
        .expect("well-formed");
        let get = |k: &str| items.iter().find(|i| i.key == k).expect(k).clone();
        assert_eq!(get("scenario.id").value.as_str(), Some("s_x"));
        assert_eq!(get("scenario.id").line, 3);
        assert_eq!(get("scenario.n").value.as_int(), Some(3));
        assert_eq!(get("scenario.rate").value.as_f64(), Some(0.25));
        assert_eq!(get("scenario.ok").value.as_bool(), Some(true));
        let xs = get("sweep.xs");
        assert_eq!(xs.line, 9);
        let list = xs.value.as_list().expect("array").to_vec();
        assert_eq!(
            list,
            vec![Value::Int(1), Value::Float(2.5), Value::Str("a".into())]
        );
    }

    #[test]
    fn strict_errors_carry_the_line() {
        let err = parse("a = 1\nwhat is this\n").expect_err("malformed");
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("key = value"), "{}", err.msg);

        let err = parse("xs = [1,\n 2,\n").expect_err("unclosed");
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("never closes"), "{}", err.msg);

        let err = parse("x = bare_word\n").expect_err("junk scalar");
        assert_eq!(err.line, 1);

        let err = parse("xs = [oops]\n").expect_err("junk element");
        assert!(err.msg.contains("array element"), "{}", err.msg);

        let err = parse("[]\n").expect_err("empty header");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn lenient_skips_what_strict_rejects() {
        let items = parse_lenient("a = 1\nwhat is this\nx = bare\nxs = [oops, \"keep\"]\nb = 2\n");
        let keys: Vec<&str> = items.iter().map(|i| i.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "xs", "b"]);
        assert_eq!(
            items[1].value.as_list(),
            Some(&[Value::Str("keep".into())][..])
        );
    }

    #[test]
    fn multi_line_arrays_anchor_on_their_first_line() {
        let items = parse("[s]\nxs = [\n  \"a\",  # why a\n  \"b\",\n]\nnext = true\n")
            .expect("well-formed");
        assert_eq!(items[0].key, "s.xs");
        assert_eq!(items[0].line, 2);
        assert_eq!(
            items[0].value.as_list(),
            Some(&[Value::Str("a".into()), Value::Str("b".into())][..])
        );
        assert_eq!(items[1].key, "s.next");
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let items = parse("k = \"a#b\"\n").expect("well-formed");
        assert_eq!(items[0].value.as_str(), Some("a#b"));
    }

    #[test]
    fn non_finite_floats_do_not_parse() {
        assert!(parse("x = inf\n").is_err());
        assert!(parse("x = nan\n").is_err());
        // Explicitly signed non-finites look numeric but still parse to
        // Float — callers validate finiteness; quoted they are strings.
        assert_eq!(parse_scalar("\"inf\""), Some(Value::Str("inf".into())));
    }
}

//! The little JSON the benchmark writes (the workspace has no serde).

use std::fmt::Write;

/// A JSON number: every digit `f64`'s shortest round-trip form has;
/// non-finite values (which JSON cannot carry) become 0.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values, keys in the given order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("{}: {}", string(key), value))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(", "))
}

/// The number that follows the first occurrence of `prefix` in `text` —
/// enough to read back the flat objects this module writes.
pub fn number_after(text: &str, prefix: &str) -> Option<f64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let end = rest.find([',', '}', ' ', '\n']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_the_shapes_the_benchmark_prints() {
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\n\"");
        assert_eq!(
            object([("x", num(1.0)), ("y", array([string("z")]))]),
            "{\"x\": 1, \"y\": [\"z\"]}"
        );
        let line = object([("a", num(0.5)), ("ab", num(-3e-7))]);
        assert_eq!(number_after(&line, "\"a\": "), Some(0.5));
        assert_eq!(number_after(&line, "\"ab\": "), Some(-3e-7));
        assert_eq!(number_after(&line, "\"b\": "), None);
    }
}

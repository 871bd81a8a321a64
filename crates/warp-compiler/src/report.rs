//! The two helpers every `BENCH_*.json` writer shares (`bench`,
//! `soak`, `supervise`, `crash`): one JSON string escaper and one
//! nearest-rank percentile. The container has no serde, so the writers
//! format their own objects; what must not drift between them is how a
//! string is quoted and how a tail latency is picked.

/// `s` as a JSON string literal, quotes included.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `items` as a one-line JSON array of strings: `["a", "b"]`.
pub(crate) fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The nearest-rank `p`-quantile (`0.0..=1.0`) of an ascending slice;
/// `0` when it is empty.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_str_array(&[]), "[]");
        assert_eq!(
            json_str_array(&["a".to_owned(), "b\"".to_owned()]),
            "[\"a\", \"b\\\"\"]"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.50), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}

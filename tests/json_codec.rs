//! Byte identity and robustness of the vendored `serde_json` shim, which
//! writes every `data/` file, cache file, fingerprint and wire frame.
//!
//! The writer formats numbers straight into its output and copies
//! escape-free string runs whole. These tests hold it to the rules it
//! replaced — `format!("{v:.1}")` for integral floats below 1e15,
//! `format!("{v}")` for other finite floats, `null` for non-finite
//! ones, and a char-by-char escaper — and check that the parser round
//! trips strings, decodes `\u` surrogate pairs, reproduces a committed
//! data file byte for byte, and refuses nesting past its limit with an
//! error instead of overflowing the stack.

use proptest::prelude::*;
use serde_json::Value;

/// The float rule the writer must keep, as it was first written.
fn reference_f64(v: f64) -> String {
    if !v.is_finite() {
        String::from("null")
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The string escaper the writer must keep, one char at a time.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
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

fn assert_float_bytes(v: f64) {
    assert_eq!(serde_json::to_string(&v).unwrap(), reference_f64(v), "{v:e}");
    // Through a tree, a sequence and the pretty writer too.
    let seq = Value::Seq(vec![Value::F64(v)]);
    assert_eq!(serde_json::to_string(&seq).unwrap(), format!("[{}]", reference_f64(v)));
    assert_eq!(
        serde_json::to_string_pretty(&seq).unwrap(),
        format!("[\n  {}\n]", reference_f64(v))
    );
}

#[test]
fn floats_match_the_reference_rule() {
    let mut values = vec![
        0.0,
        -0.0,
        1e15 - 1.0,
        -(1e15 - 1.0),
        1e15,
        -1e15,
        9_007_199_254_740_992.0, // 2^53
        9_007_199_254_740_994.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0, // subnormal
        5e-324,                  // smallest subnormal
        -5e-324,
        0.1,
        0.375,
        1.0 / 3.0,
        2.0 / 3.0,
        1e-7,
        123.456,
        0.1 + 0.2,
        1e300,
        f64::EPSILON,
        f64::MAX,
        f64::MIN,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for exp in 0..=22 {
        let p = 10f64.powi(exp);
        values.extend([p, -p, p - 1.0, p + 1.0, 2f64.powi(exp * 2)]);
    }
    for v in values {
        assert_float_bytes(v);
    }
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&(1e15 - 1.0)).unwrap(), "999999999999999.0");
    assert_eq!(serde_json::to_string(&1e15).unwrap(), "1000000000000000");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Any bit pattern (NaNs, infinities and subnormals included).
    #[test]
    fn any_float_matches_the_reference_rule(bits in 0u64..=u64::MAX) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(serde_json::to_string(&v).unwrap(), reference_f64(v));
    }

    /// Integral values on both sides of the 1e15 switch.
    #[test]
    fn integral_floats_match_the_reference_rule(v in -1e16f64..1e16) {
        let v = v.trunc();
        prop_assert_eq!(serde_json::to_string(&v).unwrap(), reference_f64(v));
    }
}

#[test]
fn integers_print_as_digits() {
    for v in [0u64, 7, 42, u64::from(u32::MAX), u64::MAX] {
        assert_eq!(serde_json::to_string(&v).unwrap(), v.to_string());
    }
    for v in [-1i64, -42, i64::MIN] {
        assert_eq!(serde_json::to_string(&v).unwrap(), v.to_string());
    }
}

#[test]
fn strings_match_the_reference_escaper_and_round_trip() {
    let ascii: String = (0u8..=0x7f).map(char::from).collect();
    let samples = [
        ascii.clone(),
        String::new(),
        String::from("plain"),
        format!("é€😀\u{2028}{ascii}ünïcode\u{7f}\u{80}"),
        String::from("\"\\\"\\"),
        String::from("tail\n"),
        String::from("\u{1}lead"),
    ];
    for s in &samples {
        let json = serde_json::to_string(s).unwrap();
        assert_eq!(json, reference_escape(s), "{s:?}");
        let back: String = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, s);
        // Keys are escaped the same way as values.
        let map = Value::Map(vec![(s.clone(), Value::Str(s.clone()))]);
        let json = serde_json::to_string(&map).unwrap();
        assert_eq!(json, format!("{{{}:{}}}", reference_escape(s), reference_escape(s)));
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
    }
}

#[test]
fn escaped_surrogate_pairs_decode_to_one_char() {
    let back: String = serde_json::from_str(r#""\ud83d\ude00""#).unwrap();
    assert_eq!(back, "😀");
    let back: String = serde_json::from_str(r#""a\u00e9\uD834\uDD1Eb""#).unwrap();
    assert_eq!(back, "aé𝄞b");
    for lone in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ud83d\u""#,
    ] {
        assert!(serde_json::from_str::<String>(lone).is_err(), "{lone}");
    }
}

#[test]
fn committed_figures_json_reprints_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/figures.json");
    let text = std::fs::read_to_string(path).expect("data/figures.json");
    let value: Value = serde_json::from_str(&text).expect("parses");
    assert_eq!(serde_json::to_string_pretty(&value).unwrap(), text);
    let compact = serde_json::to_string(&value).unwrap();
    let mut written = Vec::new();
    serde_json::to_writer(&mut written, &value).unwrap();
    assert_eq!(written, compact.as_bytes());
    let again: Value = serde_json::from_str(&compact).unwrap();
    assert_eq!(again, value);
}

fn nested_arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

fn nested_objects(depth: usize) -> String {
    "{\"a\":".repeat(depth - 1) + "{}" + &"}".repeat(depth - 1)
}

#[test]
fn nesting_is_limited_to_128_levels() {
    for depth in [1, 2, 64, 128] {
        assert!(serde_json::from_str::<Value>(&nested_arrays(depth)).is_ok(), "{depth}");
        assert!(serde_json::from_str::<Value>(&nested_objects(depth)).is_ok(), "{depth}");
    }
    for depth in [129, 1_000] {
        assert!(serde_json::from_str::<Value>(&nested_arrays(depth)).is_err(), "{depth}");
        assert!(serde_json::from_str::<Value>(&nested_objects(depth)).is_err(), "{depth}");
    }
    // An unterminated run of brackets far deeper than any stack allows
    // is an error, not a crash.
    assert!(serde_json::from_str::<Value>(&"[".repeat(20_004)).is_err());
    assert!(serde_json::from_str::<Value>(&"{\"a\":".repeat(20_004)).is_err());
    // Depth is counted per path, not in total.
    let wide = format!("[{}]", vec![nested_arrays(127); 50].join(","));
    assert!(serde_json::from_str::<Value>(&wide).is_ok());
}

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

// ---------------------------------------------------------------- raw values

/// Characters the generated strings draw from: every escape class the
/// writer knows, plus multi-byte text.
const PALETTE: [char; 12] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '𝄞',
];

/// A string of palette characters picked by the bytes of `draw`.
fn text(draw: u64) -> String {
    (0..(draw % 7))
        .map(|i| PALETTE[(draw >> (8 * i + 3)) as usize % PALETTE.len()])
        .collect()
}

/// A JSON tree (at most four levels deep) built from `draws`: each
/// draw picks a node and its payload.
fn tree(draws: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
    let Some(d) = draws.next() else {
        return Value::Null;
    };
    match d % 8 {
        0 => Value::Null,
        1 => Value::Bool(d & 8 != 0),
        2 => Value::U64(d >> 3),
        3 => Value::I64(-((d >> 4) as i64) - 1),
        4 => Value::F64(f64::from_bits(d.rotate_left(13))),
        5 => Value::Str(text(d)),
        6 if depth < 4 => Value::Seq((0..d % 4).map(|_| tree(draws, depth + 1)).collect()),
        7 if depth < 4 => Value::Map(
            (0..d % 4)
                .map(|i| (text(d >> (i * 5)), tree(draws, depth + 1)))
                .collect(),
        ),
        _ => Value::U64(d),
    }
}

/// `value` with every other child (recursively) replaced by `embed` of
/// that child.
fn splice(value: &Value, embed: &dyn Fn(&Value) -> Value) -> Value {
    let child = |i: usize, v: &Value| {
        if i.is_multiple_of(2) {
            embed(v)
        } else {
            splice(v, embed)
        }
    };
    match value {
        Value::Seq(items) => Value::Seq(items.iter().enumerate().map(|(i, v)| child(i, v)).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .enumerate()
                .map(|(i, (k, v))| (k.clone(), child(i, v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `value` as compact JSON text embedded raw.
fn raw(value: &Value) -> Value {
    Value::Raw(serde_json::to_string(value).unwrap())
}

/// `value` written out and parsed back.
fn reparsed(value: &Value) -> Value {
    serde_json::from_str(&serde_json::to_string(value).unwrap()).unwrap()
}

fn assert_no_raw(value: &Value) {
    match value {
        Value::Raw(text) => panic!("the parser produced a raw value: {text}"),
        Value::Seq(items) => items.iter().for_each(assert_no_raw),
        Value::Map(entries) => entries.iter().for_each(|(_, v)| assert_no_raw(v)),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Compact writers copy a raw value verbatim: a tree holding raw
    /// values writes the bytes of the same tree with them parsed, and
    /// `to_writer` writes what `to_string` returns. Pretty output
    /// expands raw values into the same indented text.
    #[test]
    fn raw_values_write_as_the_values_they_hold(
        draws in proptest::collection::vec(0u64..=u64::MAX, 1..40),
    ) {
        let value = tree(&mut draws.into_iter(), 0);
        let with_raw = splice(&value, &raw);
        let with_parsed = splice(&value, &reparsed);
        let compact = serde_json::to_string(&with_raw).unwrap();
        prop_assert_eq!(&compact, &serde_json::to_string(&with_parsed).unwrap());
        prop_assert_eq!(&compact, &serde_json::to_string(&raw(&value)).unwrap());
        let mut written = Vec::new();
        serde_json::to_writer(&mut written, &with_raw).unwrap();
        prop_assert_eq!(written, compact.as_bytes().to_vec());
        let pretty = serde_json::to_string_pretty(&with_raw).unwrap();
        prop_assert_eq!(&pretty, &serde_json::to_string_pretty(&with_parsed).unwrap());
        prop_assert_eq!(&pretty, &serde_json::to_string_pretty(&raw(&value)).unwrap());
        // The parser never yields a raw value, from either layout.
        assert_no_raw(&serde_json::from_str::<Value>(&compact).unwrap());
        assert_no_raw(&serde_json::from_str::<Value>(&pretty).unwrap());
    }
}

// ------------------------------------------------------- SimSpec encoder

use sos_serve::protocol::{Request, PROTOCOL_VERSION};
use sos_serve::SimSpec;

/// The spec encoding the request path first had: a `Value` tree of the
/// spec, written by the compact writer.
fn reference_spec_value(spec: &SimSpec) -> Value {
    let mut entries: Vec<(String, Value)> = vec![
        ("overlay_nodes".into(), Value::U64(spec.overlay_nodes)),
        ("sos_nodes".into(), Value::U64(spec.sos_nodes)),
        ("pb".into(), Value::F64(spec.pb)),
        ("filters".into(), Value::U64(spec.filters)),
        ("layers".into(), Value::U64(spec.layers)),
        ("mapping".into(), Value::Str(spec.mapping.clone())),
        ("distribution".into(), Value::Str(spec.distribution.clone())),
        ("evaluator".into(), Value::Str(spec.evaluator.clone())),
        ("model".into(), Value::Str(spec.model.clone())),
        ("nt".into(), Value::U64(spec.nt)),
        ("nc".into(), Value::U64(spec.nc)),
        ("rounds".into(), Value::U64(spec.rounds.into())),
        ("pe".into(), Value::F64(spec.pe)),
        ("trials".into(), Value::U64(spec.trials)),
        ("routes".into(), Value::U64(spec.routes)),
        ("seed".into(), Value::U64(spec.seed)),
        ("policy".into(), Value::Str(spec.policy.clone())),
        ("transport".into(), Value::Str(spec.transport.clone())),
    ];
    if let Some(faults) = &spec.faults {
        entries.push(("faults".into(), Value::Str(faults.clone())));
    }
    if let Some(retry) = &spec.retry {
        entries.push(("retry".into(), Value::Str(retry.clone())));
    }
    Value::Map(entries)
}

/// The `sweep` request the reference encoding wrote.
fn reference_sweep(specs: &[SimSpec], deadline_ms: Option<u64>) -> Value {
    let mut entries = vec![
        ("v".to_string(), Value::U64(PROTOCOL_VERSION)),
        ("op".to_string(), Value::Str("sweep".into())),
        (
            "specs".to_string(),
            Value::Seq(specs.iter().map(reference_spec_value).collect()),
        ),
    ];
    if let Some(ms) = deadline_ms {
        entries.push(("deadline_ms".into(), Value::U64(ms)));
    }
    Value::Map(entries)
}

/// Strategy: a spec with arbitrary numbers (any float bit pattern) and
/// strings full of escapes; `faults`/`retry` present or not.
fn spec_strategy() -> impl Strategy<Value = SimSpec> {
    (
        proptest::collection::vec(0u64..=u64::MAX, 9..10),
        proptest::collection::vec(0u64..=u64::MAX, 8..9),
        0u64..4,
    )
        .prop_map(|(n, s, optional)| SimSpec {
            overlay_nodes: n[0],
            sos_nodes: n[1],
            pb: f64::from_bits(n[2]),
            filters: n[3],
            layers: n[4] >> 60,
            mapping: text(s[0]),
            distribution: text(s[1]),
            evaluator: text(s[2]),
            model: text(s[3]),
            nt: n[5],
            nc: n[6],
            rounds: n[7] as u32,
            pe: f64::from_bits(n[8]),
            trials: n[0] ^ n[1],
            routes: n[2] >> 1,
            seed: n[3] ^ n[4],
            policy: text(s[4]),
            transport: text(s[5]),
            faults: (optional & 1 != 0).then(|| text(s[6])),
            retry: (optional & 2 != 0).then(|| text(s[7])),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// `SimSpec::to_json` writes the bytes the reference `Value` path
    /// wrote, alone and inside every request that carries specs.
    #[test]
    fn spec_encoder_writes_the_reference_bytes(
        spec in spec_strategy(),
        other in spec_strategy(),
        deadline in 0u64..3,
    ) {
        let json = spec.to_json();
        prop_assert_eq!(&json, &serde_json::to_string(&reference_spec_value(&spec)).unwrap());
        let deadline_ms = (deadline > 0).then_some(deadline * 500);
        let specs = vec![spec.clone(), other];
        let sweep = Request::Sweep { specs: specs.clone(), deadline_ms };
        prop_assert_eq!(
            serde_json::to_string(&sweep.to_value()).unwrap(),
            serde_json::to_string(&reference_sweep(&specs, deadline_ms)).unwrap()
        );
        let simulate = Request::Simulate { spec: spec.clone(), deadline_ms };
        let mut reference = vec![
            ("v".to_string(), Value::U64(PROTOCOL_VERSION)),
            ("op".to_string(), Value::Str("simulate".into())),
            ("spec".to_string(), reference_spec_value(&spec)),
        ];
        if let Some(ms) = deadline_ms {
            reference.push(("deadline_ms".into(), Value::U64(ms)));
        }
        prop_assert_eq!(
            serde_json::to_string(&simulate.to_value()).unwrap(),
            serde_json::to_string(&Value::Map(reference)).unwrap()
        );
    }
}

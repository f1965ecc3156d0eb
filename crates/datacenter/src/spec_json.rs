//! JSON (de)serialization for [`ExperimentSpec`] — the on-disk form the
//! CLI `sweep` subcommand reads and writes — plus the crate's shared
//! JSON `Value` writer that [`export`](crate::export) reuses for
//! result emission, so there is exactly one JSON emitter in the tree.
//!
//! # Examples
//!
//! ```
//! use ntc_datacenter::{spec_json, ExperimentSpec};
//!
//! let spec = ExperimentSpec::default_sweep();
//! let text = spec_json::to_json(&spec);
//! assert_eq!(spec_json::from_json(&text).unwrap(), spec);
//! ```

use crate::backend::BackendSpec;
use crate::engine::{AblationFlags, ExperimentSpec, FleetSpec, PredictorSpec};
use crate::fault::FailurePolicy;

/// Renders `spec` as pretty-printed JSON.
pub fn to_json(spec: &ExperimentSpec) -> String {
    let fleets = spec.fleets.iter().map(fleet_value).collect();
    let floors = spec
        .qos_floors_mhz
        .iter()
        .map(|&f| f.map_or(Value::Null, Value::Number))
        .collect();
    let scales = spec
        .static_power_scales
        .iter()
        .map(|&s| Value::Number(s))
        .collect();
    Value::Object(vec![
        ("name".into(), Value::String(spec.name.clone())),
        ("fleets".into(), Value::Array(fleets)),
        ("policies".into(), Value::tags(&spec.policies)),
        ("servers".into(), Value::tags(&spec.servers)),
        ("qos_floors_mhz".into(), Value::Array(floors)),
        ("static_power_scales".into(), Value::Array(scales)),
        ("backends".into(), Value::tags(&spec.backends)),
        ("predictor".into(), Value::tag(spec.predictor)),
        ("max_servers".into(), Value::Int(spec.max_servers as u64)),
        (
            "correlation_only".into(),
            Value::Bool(spec.ablation.correlation_only),
        ),
        ("failure_policy".into(), Value::tag(spec.failure_policy)),
    ])
    .render()
}

fn fleet_value(fleet: &FleetSpec) -> Value {
    Value::Object(vec![
        ("num_vms".into(), Value::Int(fleet.num_vms as u64)),
        ("seed".into(), Value::Int(fleet.seed)),
        ("weeks".into(), Value::Int(fleet.weeks as u64)),
    ])
}

/// A fleet names its size and seed; `weeks` defaults to 2, which the
/// legacy single-fleet form relies on.
fn parse_fleet(val: &Value, path: &str) -> Result<FleetSpec, String> {
    let (mut num_vms, mut seed, mut weeks) = (None, None, 2);
    for (fkey, fval) in unique_fields(val, path, &format!("{path}."))? {
        match fkey.as_str() {
            "num_vms" => num_vms = Some(fval.as_usize(&format!("{path}.num_vms"))?),
            "seed" => seed = Some(fval.as_u64(&format!("{path}.seed"))?),
            "weeks" => weeks = fval.as_usize(&format!("{path}.weeks"))?,
            other => return Err(format!("unknown field {path}.{other}")),
        }
    }
    let missing = |field: &str| format!("missing field {path}.{field}");
    Ok(FleetSpec {
        num_vms: num_vms.ok_or_else(|| missing("num_vms"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        weeks,
    })
}

/// Parses a spec from JSON text.
///
/// Unknown fields are rejected. A spec must state what runs: its
/// fleets (`fleets`, or the legacy single `fleet`), each fleet's
/// `num_vms` and `seed`, `policies`, `servers` and `max_servers`. A
/// missing one is reported by its path, e.g. `missing field
/// max_servers`, and so is a field given twice, e.g. `duplicate field
/// fleets[0].seed`. A legacy single-fleet spec (`"fleet": {...}` instead
/// of the `"fleets": [...]` axis) parses into the equivalent one-fleet
/// sweep. Every other field has a default, which `--emit-spec` output
/// always writes out:
///
/// | field | default |
/// |---|---|
/// | `predictor` | `"oracle"` |
/// | `backends` | `["analytic"]`, also for an empty array |
/// | `qos_floors_mhz` | `[null]` (no floor), also for an empty array |
/// | `static_power_scales` | `[1.0]`, also for an empty array |
/// | `failure_policy` | `"keep_going"` |
/// | a fleet's `weeks` | `2` |
/// | `name` | `""` |
/// | `correlation_only` | `false` |
///
/// # Errors
///
/// Returns a human-readable message describing the first syntax or
/// schema problem encountered.
pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
    let value = parse_value(text)?;
    let obj = unique_fields(&value, "spec", "")?;
    let mut spec = ExperimentSpec {
        name: String::new(),
        fleets: Vec::new(),
        static_power_scales: Vec::new(),
        policies: Vec::new(),
        servers: Vec::new(),
        qos_floors_mhz: Vec::new(),
        backends: Vec::new(),
        predictor: PredictorSpec::Oracle,
        max_servers: 0,
        ablation: AblationFlags::default(),
        // Legacy specs predate the failure model: keep going, as the
        // old engine effectively promised for clean sweeps.
        failure_policy: FailurePolicy::default(),
    };
    for (key, val) in obj {
        match key.as_str() {
            "name" => spec.name = val.as_string("name")?.to_string(),
            // Legacy single-fleet form, kept parseable forever.
            "fleet" => spec.fleets = vec![parse_fleet(val, "fleet")?],
            "fleets" => spec.fleets = parse_array(val, "fleets", parse_fleet)?,
            "policies" => spec.policies = parse_array(val, "policies", parse_tag)?,
            "servers" => spec.servers = parse_array(val, "servers", parse_tag)?,
            "qos_floors_mhz" => {
                spec.qos_floors_mhz = parse_array(val, "qos_floors_mhz", |item, path| match item {
                    Value::Null => Ok(None),
                    other => other.as_f64(path).map(Some),
                })?
            }
            "static_power_scales" => {
                spec.static_power_scales = parse_array(val, "static_power_scales", Value::as_f64)?
            }
            "backends" => spec.backends = parse_array(val, "backends", parse_tag)?,
            "predictor" => spec.predictor = parse_tag(val, "predictor")?,
            "max_servers" => spec.max_servers = val.as_usize("max_servers")?,
            "correlation_only" => {
                spec.ablation.correlation_only = val.as_bool("correlation_only")?
            }
            "failure_policy" => spec.failure_policy = parse_tag(val, "failure_policy")?,
            other => return Err(format!("unknown field {other}")),
        }
    }
    let has = |field: &str| obj.iter().any(|(key, _)| key == field);
    match (has("fleet"), has("fleets")) {
        (true, true) => return Err("specify either fleet (legacy) or fleets, not both".into()),
        (false, false) => return Err("missing field fleets (or legacy fleet)".into()),
        _ => {}
    }
    for field in ["policies", "servers", "max_servers"] {
        if !has(field) {
            return Err(format!("missing field {field}"));
        }
    }
    if spec.qos_floors_mhz.is_empty() {
        spec.qos_floors_mhz.push(None);
    }
    if spec.static_power_scales.is_empty() {
        spec.static_power_scales.push(1.0);
    }
    if spec.backends.is_empty() {
        // Legacy specs predate the backend axis: analytic accounting.
        spec.backends.push(BackendSpec::Analytic);
    }
    Ok(spec)
}

/// The fields of object `val` (named `path` in errors), refusing a key
/// given twice; `prefix` leads the repeated key in the error.
fn unique_fields<'a>(
    val: &'a Value,
    path: &str,
    prefix: &str,
) -> Result<&'a [(String, Value)], String> {
    let fields = val.as_object(path)?;
    for (i, (key, _)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate field {prefix}{key}"));
        }
    }
    Ok(fields)
}

/// Array field `field`, each item read by `item` with its path, e.g.
/// `policies[0]`.
fn parse_array<T>(
    val: &Value,
    field: &str,
    item: impl Fn(&Value, &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    val.as_array(field)?
        .iter()
        .enumerate()
        .map(|(i, v)| item(v, &format!("{field}[{i}]")))
        .collect()
}

/// The tag at `path`, read on `T`'s axis.
fn parse_tag<T: Tagged>(val: &Value, path: &str) -> Result<T, String> {
    T::from_tag(val.as_string(path)?)
}

/// A sweep axis whose values are named by tags in spec JSON, sweep JSON
/// and the CLI. Each axis states its (value, tag) table once, and every
/// reader and writer goes through [`tag`](Self::tag) and
/// [`from_tag`](Self::from_tag).
pub(crate) trait Tagged: Copy + PartialEq + 'static {
    /// The axis as errors name it, e.g. `policy`.
    const AXIS: &'static str;
    /// Every value with its tag, in the order errors list them.
    const TAGS: &'static [(Self, &'static str)];

    /// This value's tag.
    fn tag(self) -> &'static str {
        Self::TAGS
            .iter()
            .find(|&&(value, _)| value == self)
            .map(|&(_, tag)| tag)
            .expect("every value of an axis has a tag")
    }

    /// The value `tag` names, or `unknown <axis> "<tag>" (expected a,
    /// b or c)`.
    fn from_tag(tag: &str) -> Result<Self, String> {
        if let Some(&(value, _)) = Self::TAGS.iter().find(|&&(_, t)| t == tag) {
            return Ok(value);
        }
        let tags: Vec<&str> = Self::TAGS.iter().map(|&(_, t)| t).collect();
        let (last, rest) = tags.split_last().expect("an axis has at least two values");
        Err(format!(
            "unknown {} {tag:?} (expected {} or {last})",
            Self::AXIS,
            rest.join(", ")
        ))
    }
}

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// every control character escaped, since JSON allows none raw.
fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses arbitrary JSON text into a [`Value`] tree (crate-internal:
/// the export tests use it to check emitted JSON is well-formed).
pub(crate) fn parse_value(text: &str) -> Result<Value, String> {
    Parser::new(text).parse()
}

/// The JSON subset the spec and export formats need. Doubles as the
/// crate's one JSON *writer*: build a tree, [`Value::render`] it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    /// A number written without sign or fraction that fits a `u64`,
    /// carried exactly: seeds use all 64 bits, which an `f64` cannot
    /// hold.
    Int(u64),
    /// Any other number. Parsing never yields a non-finite one, and
    /// rendering writes one as `null`, since JSON has no NaN or
    /// infinity.
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// `value`'s tag as a JSON string.
    pub(crate) fn tag<T: Tagged>(value: T) -> Value {
        Value::String(value.tag().to_string())
    }

    /// The tags of `values` as a JSON array.
    fn tags<T: Tagged>(values: &[T]) -> Value {
        Value::Array(values.iter().map(|&v| Value::tag(v)).collect())
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    pub(crate) fn as_object(&self, path: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(format!(
                "{path} must be an object, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_array(&self, path: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(format!(
                "{path} must be an array, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_string(&self, path: &str) -> Result<&str, String> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(format!(
                "{path} must be a string, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_bool(&self, path: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!(
                "{path} must be a boolean, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_f64(&self, path: &str) -> Result<f64, String> {
        match self {
            Value::Int(n) => Ok(*n as f64),
            Value::Number(n) => Ok(*n),
            other => Err(format!(
                "{path} must be a number, got {}",
                other.type_name()
            )),
        }
    }

    pub(crate) fn as_u64(&self, path: &str) -> Result<u64, String> {
        if let Value::Int(n) = self {
            return Ok(*n);
        }
        // An integral float such as `3.0` still counts; 2^64 (the f64
        // nearest u64::MAX) does not fit.
        let n = self.as_f64(path)?;
        if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
            return Err(format!("{path} must be a non-negative integer, got {n}"));
        }
        Ok(n as u64)
    }

    pub(crate) fn as_usize(&self, path: &str) -> Result<usize, String> {
        let n = self.as_u64(path)?;
        usize::try_from(n).map_err(|_| format!("{path} is too large"))
    }

    /// Whether this value renders on one line (no nested structure).
    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Object(_))
    }

    /// Pretty-prints the tree: objects multiline with two-space
    /// indentation, scalar arrays inline, structured arrays one item
    /// per line. Output ends with a newline and round-trips through
    /// the parser (f64 `Display` never emits exponents); a non-finite
    /// number renders as `null` so the output is always valid JSON.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let pad = |n: usize| "  ".repeat(n);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Number(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Number(_) => out.push_str("null"),
            Value::String(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else if items.iter().all(Value::is_scalar) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad(indent + 1));
                        item.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&pad(indent));
                    out.push(']');
                }
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    let _ = write!(out, "\"{}\": ", escape(key));
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad(indent));
                out.push('}');
            }
        }
    }
}

/// Minimal recursive-descent JSON parser: every escape and number form
/// of standard JSON, so a spec written by another tool reads too; zero
/// dependencies.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Value, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing input at byte {}", self.pos));
        }
        Ok(value)
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
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.peek()?;
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: lean on str validity.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().expect("non-empty by the match above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed. A
    /// UTF-16 surrogate pair, written as two escapes, joins into one
    /// character; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{code:04x} at byte {start}"))
    }

    /// Exactly four hex digits, as a `\u` escape carries them.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("\\u escape at byte {} needs four hex digits", self.pos))?;
        self.pos += 4;
        let digits = std::str::from_utf8(digits).expect("ASCII hex digits");
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    /// A number: the run of characters a JSON number may hold (sign,
    /// digits, fraction, exponent), checked by Rust's own parsers.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            Ok(_) => Err(format!("number {text:?} at byte {start} is out of range")),
            Err(_) => Err(format!("invalid number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicySpec;

    /// The smallest spec that parses: a legacy fleet and the required
    /// fields, followed by `extra` (empty, or fields each led by a
    /// comma).
    fn minimal_spec(extra: &str) -> String {
        format!(
            r#"{{"fleet": {{"num_vms": 4, "seed": 1}}, "policies": ["epact"], "servers": ["ntc"], "max_servers": 10{extra}}}"#
        )
    }

    #[test]
    fn round_trips_the_default_sweep() {
        let spec = ExperimentSpec::default_sweep();
        let text = to_json(&spec);
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn round_trips_every_knob() {
        let mut spec = ExperimentSpec::default_sweep();
        spec.name = "full \"axis\" sweep".to_string();
        spec.policies.push(PolicySpec::LoadBalance);
        spec.qos_floors_mhz = vec![None, Some(1200.0), Some(1800.0)];
        spec.predictor = PredictorSpec::Arima;
        spec.ablation.correlation_only = true;
        let text = to_json(&spec);
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn round_trips_fleet_set_and_scale_axes() {
        let mut spec = ExperimentSpec::default_sweep().with_seeds(&[1, 2, 3]);
        spec.fleets[2].num_vms = 96; // a size sweep mixed into the set
        spec.fleets[2].weeks = 3;
        spec.static_power_scales = vec![0.25, 1.0, 1.5];
        let text = to_json(&spec);
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn round_trips_the_backend_axis() {
        let mut spec = ExperimentSpec::default_sweep();
        spec.backends = vec![BackendSpec::Analytic, BackendSpec::Archsim];
        let text = to_json(&spec);
        assert!(text.contains("\"backends\""), "{text}");
        assert_eq!(from_json(&text).unwrap(), spec);
        spec.backends = vec![BackendSpec::Archsim];
        assert_eq!(from_json(&to_json(&spec)).unwrap(), spec);
    }

    #[test]
    fn round_trips_the_failure_policy() {
        let mut spec = ExperimentSpec::default_sweep();
        spec.failure_policy = FailurePolicy::FailFast;
        let text = to_json(&spec);
        assert!(text.contains("\"failure_policy\": \"fail_fast\""), "{text}");
        assert_eq!(from_json(&text).unwrap(), spec);
    }

    #[test]
    fn missing_failure_policy_defaults_to_keep_going() {
        let spec = from_json(&minimal_spec("")).unwrap();
        assert_eq!(spec.failure_policy, FailurePolicy::KeepGoing);
    }

    #[test]
    fn rejects_unknown_failure_policy() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "failure_policy": "retry"}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("retry"), "{err}");
    }

    #[test]
    fn legacy_single_fleet_spec_still_parses() {
        // The exact shape PR 1's to_json emitted: "fleet" object, no
        // fleets/static_power_scales arrays.
        let text = concat!(
            "{\n",
            "  \"name\": \"policy-comparison\",\n",
            "  \"fleet\": {\"num_vms\": 48, \"seed\": 2024, \"weeks\": 2},\n",
            "  \"policies\": [\"epact\", \"coat\", \"coat_opt\"],\n",
            "  \"servers\": [\"ntc\", \"conventional\"],\n",
            "  \"qos_floors_mhz\": [null],\n",
            "  \"predictor\": \"oracle\",\n",
            "  \"max_servers\": 600,\n",
            "  \"correlation_only\": false\n",
            "}\n"
        );
        let spec = from_json(text).unwrap();
        assert_eq!(spec, ExperimentSpec::default_sweep());
        assert_eq!(spec.fleets.len(), 1);
        assert_eq!(spec.static_power_scales, vec![1.0]);
        // No "backends" field in legacy JSON: analytic accounting.
        assert_eq!(spec.backends, vec![BackendSpec::Analytic]);
    }

    #[test]
    fn empty_backend_list_defaults_to_analytic() {
        let spec = from_json(&minimal_spec(r#", "backends": []"#)).unwrap();
        assert_eq!(spec.backends, vec![BackendSpec::Analytic]);
    }

    #[test]
    fn rejects_unknown_backend() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "backends": ["gem5"]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("gem5"), "{err}");
    }

    #[test]
    fn rejects_both_fleet_forms_at_once() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "fleets": [{"num_vms": 4, "seed": 1}]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn rejects_unknown_fields() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "frobnicate": 3}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
    }

    #[test]
    fn rejects_unknown_policy() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "policies": ["greedy"]}"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("greedy"), "{err}");
    }

    /// The spec vocabulary, pinned word for word: the error for an
    /// unknown tag on each of the five axes, and every label that is
    /// also a tag.
    #[test]
    fn pins_the_tag_vocabulary() {
        for (field, value, err) in [
            (
                "policies",
                r#"["greedy"]"#,
                r#"unknown policy "greedy" (expected epact, coat, coat_opt or load_balance)"#,
            ),
            (
                "servers",
                r#"["NTC"]"#,
                r#"unknown server "NTC" (expected ntc or conventional)"#,
            ),
            (
                "predictor",
                r#""lstm""#,
                r#"unknown predictor "lstm" (expected oracle, arima or seasonal_naive)"#,
            ),
            (
                "backends",
                r#"["analytic", "gem\"5"]"#,
                r#"unknown backend "gem\"5" (expected analytic or archsim)"#,
            ),
            (
                "failure_policy",
                r#""retry""#,
                r#"unknown failure policy "retry" (expected keep_going or fail_fast)"#,
            ),
        ] {
            let text = format!(r#"{{"fleet": {{"num_vms": 4, "seed": 1}}, "{field}": {value}}}"#);
            assert_eq!(from_json(&text).unwrap_err(), err, "{field}");
        }
        // The CLI's `--backends` reads the same words.
        assert_eq!(
            "Archsim".parse::<BackendSpec>().unwrap_err(),
            r#"unknown backend "Archsim" (expected analytic or archsim)"#
        );
        let labels = [
            (BackendSpec::Analytic.label(), "analytic"),
            (BackendSpec::Archsim.label(), "archsim"),
            (PredictorSpec::Oracle.label(), "oracle"),
            (PredictorSpec::Arima.label(), "arima"),
            (PredictorSpec::SeasonalNaive.label(), "seasonal_naive"),
            (FailurePolicy::KeepGoing.label(), "keep_going"),
            (FailurePolicy::FailFast.label(), "fail_fast"),
        ];
        for (label, tag) in labels {
            assert_eq!(label, tag);
        }
    }

    #[test]
    fn rejects_missing_fleet() {
        let err = from_json(r#"{"name": "x"}"#).unwrap_err();
        assert!(err.contains("fleet"), "{err}");
        // A fleet must name its size and seed; neither defaults to 0.
        let err = from_json(r#"{"fleets": [{"num_vms": 10}]}"#).unwrap_err();
        assert_eq!(err, "missing field fleets[0].seed");
        let err = from_json(r#"{"fleets": [{"seed": 1}, {"num_vms": 10}]}"#).unwrap_err();
        assert_eq!(err, "missing field fleets[0].num_vms");
        let err = from_json(r#"{"fleet": {"num_vms": 10, "weeks": 2}}"#).unwrap_err();
        assert_eq!(err, "missing field fleet.seed");
    }

    #[test]
    fn rejects_a_field_given_twice() {
        // A repeated array used to run both lists, a repeated scalar
        // its last value and a repeated legacy fleet two fleets.
        for (extra, field) in [
            (r#", "policies": ["coat"]"#, "policies"),
            (r#", "max_servers": 20"#, "max_servers"),
            (r#", "fleet": {"num_vms": 4, "seed": 2}"#, "fleet"),
        ] {
            let err = from_json(&minimal_spec(extra)).unwrap_err();
            assert_eq!(err, format!("duplicate field {field}"));
        }
        let err = from_json(r#"{"fleets": [{"num_vms": 4, "seed": 1, "seed": 2}]}"#).unwrap_err();
        assert_eq!(err, "duplicate field fleets[0].seed");
        let err = from_json(r#"{"fleet": {"seed": 1, "weeks": 2, "weeks": 3}}"#).unwrap_err();
        assert_eq!(err, "duplicate field fleet.weeks");
    }

    #[test]
    fn rejects_missing_required_fields() {
        // A spec without one of these parsed, then failed with an
        // unrelated error ("data center needs at least one server",
        // "experiment spec needs at least one cell").
        for field in ["policies", "servers", "max_servers"] {
            let full = parse_value(&to_json(&ExperimentSpec::default_sweep())).unwrap();
            let Value::Object(mut fields) = full else {
                unreachable!("a spec renders as an object")
            };
            fields.retain(|(key, _)| key != field);
            let err = from_json(&Value::Object(fields).render()).unwrap_err();
            assert_eq!(err, format!("missing field {field}"));
        }
    }

    #[test]
    fn rejects_syntax_errors() {
        assert!(from_json("{").is_err());
        assert!(from_json(r#"{"name": }"#).is_err());
        assert!(from_json("{} trailing").is_err());
        assert!(from_json(r#"{"fleet": {"num_vms": -3, "seed": 1}}"#).is_err());
        // A lone surrogate, and a \u escape short of four hex digits.
        let err = from_json(r#"{"name": "\ud800"}"#).unwrap_err();
        assert!(err.contains("lone surrogate"), "{err}");
        let err = from_json(r#"{"name": "\u12"}"#).unwrap_err();
        assert!(err.contains("four hex digits"), "{err}");
    }

    #[test]
    fn empty_floor_list_defaults_to_no_floor() {
        let spec = from_json(&minimal_spec(r#", "qos_floors_mhz": []"#)).unwrap();
        assert_eq!(spec.qos_floors_mhz, vec![None]);
    }

    #[test]
    fn empty_scale_list_defaults_to_unit_scale() {
        let spec = from_json(&minimal_spec(r#", "static_power_scales": []"#)).unwrap();
        assert_eq!(spec.static_power_scales, vec![1.0]);
    }

    #[test]
    fn value_renderer_round_trips_structures() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Number(1.5), Value::Null]),
            ),
            (
                "b".into(),
                Value::Array(vec![Value::Object(vec![(
                    "k".into(),
                    Value::String("x\"y".into()),
                )])]),
            ),
            ("c".into(), Value::Object(vec![])),
            ("d".into(), Value::Array(vec![])),
            ("e".into(), Value::Bool(true)),
            ("f".into(), Value::Int(u64::MAX)),
        ]);
        let text = v.render();
        assert_eq!(parse_value(&text).unwrap(), v);

        // Every control character is escaped, so the only raw ones
        // left are the layout's newlines; non-ASCII text stays as is.
        let controls: String = ('\u{0}'..' ').collect();
        let v = Value::String(format!("{controls}é\u{1F600}"));
        let text = v.render();
        assert_eq!(parse_value(&text).unwrap(), v);
        assert!(!text.chars().any(|c| c < ' ' && c != '\n'), "{text:?}");

        // The escapes and number forms another JSON writer may use.
        assert_eq!(
            parse_value(r#"["caf\u00e9 \ud83d\ude00 \/\b\f\r", 1e-5, 2E+3]"#).unwrap(),
            Value::Array(vec![
                Value::String("café \u{1F600} /\u{8}\u{c}\r".into()),
                Value::Number(1e-5),
                Value::Number(2000.0),
            ])
        );
    }

    #[test]
    fn non_finite_numbers_never_reach_or_leave_the_codec() {
        // JSON has no NaN or infinity: the writer emits null, and a
        // literal too large for an f64 is refused instead of parsing
        // to infinity.
        let v = Value::Array(vec![Value::Number(f64::NAN), Value::Number(f64::INFINITY)]);
        assert_eq!(v.render(), "[null, null]\n");
        let huge = format!(
            r#"{{"fleet": {{"num_vms": 4, "seed": 1}}, "static_power_scales": [1{}]}}"#,
            "0".repeat(400)
        );
        let err = from_json(&huge).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}

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
use crate::engine::{
    AblationFlags, ExperimentSpec, FleetSpec, PolicySpec, PredictorSpec, ServerSpec,
};
use crate::fault::FailurePolicy;

/// Renders `spec` as pretty-printed JSON.
pub fn to_json(spec: &ExperimentSpec) -> String {
    let fleets = spec.fleets.iter().map(fleet_value).collect();
    let policies = spec
        .policies
        .iter()
        .map(|&p| Value::String(policy_tag(p).to_string()))
        .collect();
    let servers = spec
        .servers
        .iter()
        .map(|&s| Value::String(server_tag(s).to_string()))
        .collect();
    let floors = spec
        .qos_floors_mhz
        .iter()
        .map(|f| match f {
            Some(mhz) => Value::Number(*mhz),
            None => Value::Null,
        })
        .collect();
    let scales = spec
        .static_power_scales
        .iter()
        .map(|&s| Value::Number(s))
        .collect();
    let backends = spec
        .backends
        .iter()
        .map(|&b| Value::String(b.label().to_string()))
        .collect();
    Value::Object(vec![
        ("name".into(), Value::String(spec.name.clone())),
        ("fleets".into(), Value::Array(fleets)),
        ("policies".into(), Value::Array(policies)),
        ("servers".into(), Value::Array(servers)),
        ("qos_floors_mhz".into(), Value::Array(floors)),
        ("static_power_scales".into(), Value::Array(scales)),
        ("backends".into(), Value::Array(backends)),
        (
            "predictor".into(),
            Value::String(predictor_tag(spec.predictor).to_string()),
        ),
        ("max_servers".into(), Value::Int(spec.max_servers as u64)),
        (
            "correlation_only".into(),
            Value::Bool(spec.ablation.correlation_only),
        ),
        (
            "failure_policy".into(),
            Value::String(spec.failure_policy.label().to_string()),
        ),
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
    for (fkey, fval) in val.as_object(path)? {
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
/// Unknown fields are rejected, missing fields report their path. A
/// legacy single-fleet spec (`"fleet": {...}` instead of the
/// `"fleets": [...]` axis, no `static_power_scales`) parses into the
/// equivalent one-fleet, scale-1.0 sweep, and a spec without a
/// `backends` array (or with an empty one) defaults to the analytic
/// backend.
///
/// # Errors
///
/// Returns a human-readable message describing the first syntax or
/// schema problem encountered.
pub fn from_json(text: &str) -> Result<ExperimentSpec, String> {
    let value = parse_value(text)?;
    let obj = value.as_object("spec")?;
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
    let mut seen_fleet = false;
    let mut seen_fleets = false;
    for (key, val) in obj {
        match key.as_str() {
            "name" => spec.name = val.as_string("name")?.to_string(),
            // Legacy single-fleet form, kept parseable forever.
            "fleet" => {
                seen_fleet = true;
                spec.fleets.push(parse_fleet(val, "fleet")?);
            }
            "fleets" => {
                seen_fleets = true;
                for (i, item) in val.as_array("fleets")?.iter().enumerate() {
                    spec.fleets
                        .push(parse_fleet(item, &format!("fleets[{i}]"))?);
                }
            }
            "policies" => {
                for (i, item) in val.as_array("policies")?.iter().enumerate() {
                    let tag = item.as_string(&format!("policies[{i}]"))?;
                    spec.policies.push(parse_policy(tag)?);
                }
            }
            "servers" => {
                for (i, item) in val.as_array("servers")?.iter().enumerate() {
                    let tag = item.as_string(&format!("servers[{i}]"))?;
                    spec.servers.push(parse_server(tag)?);
                }
            }
            "qos_floors_mhz" => {
                for (i, item) in val.as_array("qos_floors_mhz")?.iter().enumerate() {
                    spec.qos_floors_mhz.push(match item {
                        Value::Null => None,
                        other => Some(other.as_f64(&format!("qos_floors_mhz[{i}]"))?),
                    });
                }
            }
            "static_power_scales" => {
                for (i, item) in val.as_array("static_power_scales")?.iter().enumerate() {
                    spec.static_power_scales
                        .push(item.as_f64(&format!("static_power_scales[{i}]"))?);
                }
            }
            "backends" => {
                for (i, item) in val.as_array("backends")?.iter().enumerate() {
                    let tag = item.as_string(&format!("backends[{i}]"))?;
                    spec.backends.push(parse_backend(tag)?);
                }
            }
            "predictor" => spec.predictor = parse_predictor(val.as_string("predictor")?)?,
            "max_servers" => spec.max_servers = val.as_usize("max_servers")?,
            "correlation_only" => {
                spec.ablation.correlation_only = val.as_bool("correlation_only")?
            }
            "failure_policy" => {
                spec.failure_policy = parse_failure_policy(val.as_string("failure_policy")?)?
            }
            other => return Err(format!("unknown field {other}")),
        }
    }
    if seen_fleet && seen_fleets {
        return Err("specify either fleet (legacy) or fleets, not both".to_string());
    }
    if !seen_fleet && !seen_fleets {
        return Err("missing field fleets (or legacy fleet)".to_string());
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

fn parse_backend(tag: &str) -> Result<BackendSpec, String> {
    tag.parse()
}

fn parse_failure_policy(tag: &str) -> Result<FailurePolicy, String> {
    match tag {
        "keep_going" => Ok(FailurePolicy::KeepGoing),
        "fail_fast" => Ok(FailurePolicy::FailFast),
        other => Err(format!(
            "unknown failure policy {other:?} (expected keep_going or fail_fast)"
        )),
    }
}

pub(crate) fn policy_tag(p: PolicySpec) -> &'static str {
    match p {
        PolicySpec::Epact => "epact",
        PolicySpec::Coat => "coat",
        PolicySpec::CoatOpt => "coat_opt",
        PolicySpec::LoadBalance => "load_balance",
    }
}

fn parse_policy(tag: &str) -> Result<PolicySpec, String> {
    match tag {
        "epact" => Ok(PolicySpec::Epact),
        "coat" => Ok(PolicySpec::Coat),
        "coat_opt" => Ok(PolicySpec::CoatOpt),
        "load_balance" => Ok(PolicySpec::LoadBalance),
        other => Err(format!(
            "unknown policy {other:?} (expected epact, coat, coat_opt or load_balance)"
        )),
    }
}

pub(crate) fn server_tag(s: ServerSpec) -> &'static str {
    match s {
        ServerSpec::Ntc => "ntc",
        ServerSpec::Conventional => "conventional",
    }
}

fn parse_server(tag: &str) -> Result<ServerSpec, String> {
    match tag {
        "ntc" => Ok(ServerSpec::Ntc),
        "conventional" => Ok(ServerSpec::Conventional),
        other => Err(format!(
            "unknown server {other:?} (expected ntc or conventional)"
        )),
    }
}

fn predictor_tag(p: PredictorSpec) -> &'static str {
    match p {
        PredictorSpec::Oracle => "oracle",
        PredictorSpec::Arima => "arima",
        PredictorSpec::SeasonalNaive => "seasonal_naive",
    }
}

fn parse_predictor(tag: &str) -> Result<PredictorSpec, String> {
    match tag {
        "oracle" => Ok(PredictorSpec::Oracle),
        "arima" => Ok(PredictorSpec::Arima),
        "seasonal_naive" => Ok(PredictorSpec::SeasonalNaive),
        other => Err(format!(
            "unknown predictor {other:?} (expected oracle, arima or seasonal_naive)"
        )),
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
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}}"#;
        let spec = from_json(text).unwrap();
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
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "backends": []}"#;
        let spec = from_json(text).unwrap();
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
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "qos_floors_mhz": []}"#;
        let spec = from_json(text).unwrap();
        assert_eq!(spec.qos_floors_mhz, vec![None]);
    }

    #[test]
    fn empty_scale_list_defaults_to_unit_scale() {
        let text = r#"{"fleet": {"num_vms": 4, "seed": 1}, "static_power_scales": []}"#;
        let spec = from_json(text).unwrap();
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

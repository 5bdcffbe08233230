//! Request validation and canonicalization.
//!
//! Every `POST /submit` body is parsed, strictly validated (unknown
//! fields, duplicate keys, out-of-range values, and kind-irrelevant
//! fields are all structured errors naming the offending field), and
//! then rebuilt into a **canonical document**: defaults filled in, every
//! value re-typed, object keys sorted. Two requests that mean the same
//! job — whatever their key order, float spelling, or omitted defaults —
//! canonicalize to the same bytes, and the FNV-1a hash of those bytes is
//! the job's content address. That hash is the whole cache story:
//! reports are byte-reproducible and `host_ms`-stripped, so
//! `same canonical request ⇒ same report bytes`, forever.

use aputil::cli::Factor;
use aputil::{fnv1a_64, Json, JsonErrorKind};

/// What a request asks the simulator to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An `apps` × `sizes` × `factors` grid (one point per app with the
    /// defaults), reported as a versioned `ap1000plus.bench` document.
    Bench,
    /// Apps under a seed-derived survivable fault schedule.
    Fault,
    /// Re-cost a recorded `.evtrace` under a factor grid.
    Remodel,
    /// Sleep for `ms` host-milliseconds (testing/CI only; the server
    /// refuses it unless explicitly enabled).
    Sleep,
}

impl Kind {
    pub fn as_str(&self) -> &'static str {
        match self {
            Kind::Bench => "bench",
            Kind::Fault => "fault",
            Kind::Remodel => "remodel",
            Kind::Sleep => "sleep",
        }
    }
}

/// Structured rejection: which field, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The offending field (or `body` for document-level problems).
    pub field: String,
    pub detail: String,
}

impl RequestError {
    fn new(field: impl Into<String>, detail: impl Into<String>) -> RequestError {
        RequestError {
            field: field.into(),
            detail: detail.into(),
        }
    }

    /// The JSON error document the server sends with HTTP 400.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("error", Json::from("bad_request")),
            ("field", Json::from(self.field.clone())),
            ("detail", Json::from(self.detail.clone())),
        ])
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.detail)
    }
}

/// A validated, canonicalized, content-addressed request.
#[derive(Clone, Debug)]
pub struct CanonRequest {
    pub kind: Kind,
    /// The canonical document (defaults filled, keys sorted).
    pub canonical: Json,
    /// `canonical` serialized compactly — the hashed bytes.
    pub text: String,
    /// `fnv1a_64(text)`: the content address.
    pub key: u64,
}

impl CanonRequest {
    /// The content address as cache files and `X-Key` headers spell it.
    pub fn key_hex(&self) -> String {
        aputil::key_hex(self.key)
    }

    /// Convenience accessor into the canonical document.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.canonical.get(name)
    }
}

/// Most entries accepted in `apps`/`sizes`/`factors` — bounds the cost
/// of a single job.
pub(crate) const MAX_LIST: usize = 16;
/// Largest accepted machine size (the emulator's cell cap).
const MAX_PE: u64 = 65_536;
/// Longest accepted sleep, in host-milliseconds.
const MAX_SLEEP_MS: u64 = 60_000;

fn duplicate_key(v: &Json) -> Option<String> {
    match v {
        Json::Obj(members) => {
            for (i, (k, inner)) in members.iter().enumerate() {
                if members.iter().take(i).any(|(prev, _)| prev == k) {
                    return Some(k.clone());
                }
                if let Some(d) = duplicate_key(inner) {
                    return Some(d);
                }
            }
            None
        }
        Json::Arr(items) => items.iter().find_map(duplicate_key),
        _ => None,
    }
}

fn str_list(v: &Json, field: &str, max_item_len: usize) -> Result<Vec<String>, RequestError> {
    let items = v
        .as_arr()
        .ok_or_else(|| RequestError::new(field, "must be an array of strings"))?;
    if items.is_empty() || items.len() > MAX_LIST {
        return Err(RequestError::new(
            field,
            format!("must have 1..={MAX_LIST} entries, got {}", items.len()),
        ));
    }
    items
        .iter()
        .map(|j| {
            let s = j
                .as_str()
                .ok_or_else(|| RequestError::new(field, "entries must be strings"))?;
            if s.is_empty() || s.len() > max_item_len {
                return Err(RequestError::new(
                    field,
                    format!("entry '{s}' must be 1..={max_item_len} characters"),
                ));
            }
            Ok(s.to_string())
        })
        .collect()
}

fn parse_scale(v: Option<&Json>) -> Result<&'static str, RequestError> {
    match v {
        None => Ok("test"),
        Some(j) => match j.as_str() {
            Some("test") => Ok("test"),
            Some("paper") => Ok("paper"),
            _ => Err(RequestError::new(
                "scale",
                format!("must be \"test\" or \"paper\", got {j}"),
            )),
        },
    }
}

fn parse_sizes(v: Option<&Json>) -> Result<Vec<Json>, RequestError> {
    let Some(j) = v else {
        return Ok(vec![Json::from("default")]);
    };
    let items = j
        .as_arr()
        .ok_or_else(|| RequestError::new("sizes", "must be an array"))?;
    if items.is_empty() || items.len() > MAX_LIST {
        return Err(RequestError::new(
            "sizes",
            format!("must have 1..={MAX_LIST} entries, got {}", items.len()),
        ));
    }
    items
        .iter()
        .map(|item| {
            if item.as_str() == Some("default") {
                return Ok(Json::from("default"));
            }
            match item.as_u64() {
                Some(pe) if (1..=MAX_PE).contains(&pe) => Ok(Json::from(pe)),
                _ => Err(RequestError::new(
                    "sizes",
                    format!(
                        "entries must be \"default\" or a PE count in 1..={MAX_PE}, got {item}"
                    ),
                )),
            }
        })
        .collect()
}

fn parse_factors(v: Option<&Json>) -> Result<Vec<Json>, RequestError> {
    let Some(j) = v else {
        return Ok(vec![Json::F(1.0)]);
    };
    let items = j
        .as_arr()
        .ok_or_else(|| RequestError::new("factors", "must be an array of numbers"))?;
    if items.is_empty() || items.len() > MAX_LIST {
        return Err(RequestError::new(
            "factors",
            format!("must have 1..={MAX_LIST} entries, got {}", items.len()),
        ));
    }
    items
        .iter()
        .map(|item| match item.as_f64().and_then(Factor::new) {
            Some(f) => Ok(Json::F(f.0)),
            None => Err(RequestError::new(
                "factors",
                format!(
                    "entries must be finite numbers in (0, {}], got {item}",
                    Factor::MAX
                ),
            )),
        })
        .collect()
}

fn parse_rev(v: Option<&Json>) -> Result<Json, RequestError> {
    match v {
        None | Some(Json::Null) => Ok(Json::Null),
        Some(j) => match j.as_str() {
            Some(s) if !s.is_empty() && s.len() <= 64 => Ok(Json::from(s)),
            _ => Err(RequestError::new(
                "rev",
                format!("must be a 1..=64-character string or null, got {j}"),
            )),
        },
    }
}

/// Parses and canonicalizes one `POST /submit` body.
pub fn parse_request(body: &[u8]) -> Result<CanonRequest, RequestError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| RequestError::new("body", "request body is not UTF-8"))?;
    let doc = Json::parse(text).map_err(|e| {
        let detail = match e.kind {
            JsonErrorKind::TooDeep => format!("rejected: {e}"),
            JsonErrorKind::Syntax => format!("request body is not valid JSON: {e}"),
        };
        RequestError::new("body", detail)
    })?;
    let members = doc
        .as_obj()
        .ok_or_else(|| RequestError::new("body", "request body must be a JSON object"))?;
    if let Some(k) = duplicate_key(&doc) {
        return Err(RequestError::new(k, "duplicate key"));
    }

    let kind = match doc.get("kind").map(|j| (j, j.as_str())) {
        None => return Err(RequestError::new("kind", "required field is missing")),
        Some((_, Some("bench"))) => Kind::Bench,
        Some((_, Some("fault"))) => Kind::Fault,
        Some((_, Some("remodel"))) => Kind::Remodel,
        Some((_, Some("sleep"))) => Kind::Sleep,
        Some((j, _)) => {
            return Err(RequestError::new(
                "kind",
                format!("must be one of bench|fault|remodel|sleep, got {j}"),
            ))
        }
    };

    // Strict field allowlist per kind: a field the job would silently
    // ignore must not silently vary the content address.
    let allowed: &[&str] = match kind {
        Kind::Bench => &["kind", "apps", "scale", "sizes", "factors", "rev"],
        Kind::Fault => &["kind", "apps", "scale", "fault_seed"],
        Kind::Remodel => &["kind", "trace", "factors", "rev"],
        Kind::Sleep => &["kind", "ms", "crash"],
    };
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return Err(RequestError::new(
                k.clone(),
                format!("unknown field for kind \"{}\"", kind.as_str()),
            ));
        }
    }

    // Rebuild the canonical document with defaults filled and values
    // re-typed; `canonicalize` then pins the key order.
    let mut canon: Vec<(String, Json)> = vec![("kind".into(), Json::from(kind.as_str()))];
    match kind {
        Kind::Bench => {
            let apps = match doc.get("apps") {
                Some(v) => str_list(v, "apps", 32)?,
                None => vec!["EP".to_string()],
            };
            canon.push(("apps".into(), Json::from(apps)));
            canon.push(("scale".into(), Json::from(parse_scale(doc.get("scale"))?)));
            canon.push(("sizes".into(), Json::Arr(parse_sizes(doc.get("sizes"))?)));
            canon.push((
                "factors".into(),
                Json::Arr(parse_factors(doc.get("factors"))?),
            ));
            canon.push(("rev".into(), parse_rev(doc.get("rev"))?));
        }
        Kind::Fault => {
            let apps = match doc.get("apps") {
                Some(v) => str_list(v, "apps", 32)?,
                None => vec!["CG".to_string()],
            };
            canon.push(("apps".into(), Json::from(apps)));
            canon.push(("scale".into(), Json::from(parse_scale(doc.get("scale"))?)));
            let seed = match doc.get("fault_seed") {
                None => 1,
                Some(j) => j.as_u64().ok_or_else(|| {
                    RequestError::new(
                        "fault_seed",
                        format!("must be a non-negative integer, got {j}"),
                    )
                })?,
            };
            canon.push(("fault_seed".into(), Json::from(seed)));
        }
        Kind::Remodel => {
            let trace = doc
                .get("trace")
                .and_then(Json::as_str)
                .ok_or_else(|| RequestError::new("trace", "required string field is missing"))?;
            if trace.is_empty() || trace.len() > 512 {
                return Err(RequestError::new("trace", "must be 1..=512 characters"));
            }
            // The server reads this path: keep it inside the working
            // directory. Absolute paths and parent traversal are refused.
            if trace.starts_with('/')
                || trace.contains('\\')
                || std::path::Path::new(trace)
                    .components()
                    .any(|c| matches!(c, std::path::Component::ParentDir))
            {
                return Err(RequestError::new(
                    "trace",
                    "must be a relative path without '..' components",
                ));
            }
            canon.push(("trace".into(), Json::from(trace)));
            canon.push((
                "factors".into(),
                Json::Arr(parse_factors(doc.get("factors"))?),
            ));
            canon.push(("rev".into(), parse_rev(doc.get("rev"))?));
        }
        Kind::Sleep => {
            let ms = match doc.get("ms") {
                None => 10,
                Some(j) => match j.as_u64() {
                    Some(ms) if ms <= MAX_SLEEP_MS => ms,
                    _ => {
                        return Err(RequestError::new(
                            "ms",
                            format!("must be an integer in 0..={MAX_SLEEP_MS}, got {j}"),
                        ))
                    }
                },
            };
            canon.push(("ms".into(), Json::from(ms)));
            // Deliberate failure injection for the sandbox test matrix:
            // `"crash":"panic"` panics after the sleep, `"abort"` calls
            // `abort(2)`. Only meaningful where sleep jobs are enabled.
            let crash = match doc.get("crash") {
                None | Some(Json::Null) => Json::Null,
                Some(j) => match j.as_str() {
                    Some("panic") => Json::from("panic"),
                    Some("abort") => Json::from("abort"),
                    _ => {
                        return Err(RequestError::new(
                            "crash",
                            format!("must be null, \"panic\", or \"abort\", got {j}"),
                        ))
                    }
                },
            };
            canon.push(("crash".into(), crash));
        }
    }

    let canonical = Json::Obj(canon).canonicalize();
    let text = canonical.to_string();
    let key = fnv1a_64(text.as_bytes());
    Ok(CanonRequest {
        kind,
        canonical,
        text,
        key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<CanonRequest, RequestError> {
        parse_request(s.as_bytes())
    }

    #[test]
    fn canonicalization_is_spelling_invariant() {
        // Key order, omitted defaults, and integral-float spelling all
        // collapse to one content address.
        let a = parse(r#"{"kind":"bench","apps":["EP"]}"#).unwrap();
        let b = parse(
            r#"{"factors":[1.0],"scale":"test","apps":["EP"],"kind":"bench","sizes":["default"],"rev":null}"#,
        )
        .unwrap();
        let c = parse(r#"{"kind":"bench","apps":["EP"],"factors":[1]}"#).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.key, b.key);
        assert_eq!(a.key, c.key, "1 and 1.0 must hash identically");
        // Canonical text is sorted and fully defaulted.
        assert_eq!(
            a.text,
            r#"{"apps":["EP"],"factors":[1.0],"kind":"bench","rev":null,"scale":"test","sizes":["default"]}"#
        );
    }

    #[test]
    fn different_jobs_get_different_keys() {
        let a = parse(r#"{"kind":"bench","apps":["EP"]}"#).unwrap();
        let b = parse(r#"{"kind":"bench","apps":["MatMul"]}"#).unwrap();
        let c = parse(r#"{"kind":"fault","apps":["EP"]}"#).unwrap();
        assert_ne!(a.key, b.key);
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn one_spelling_per_job_and_no_transport_options() {
        // A grid job is `bench`; there is no second kind for the same
        // fields, and no field that changes how the answer travels.
        let e = parse(r#"{"kind":"sweep","apps":["EP"]}"#).unwrap_err();
        assert_eq!(e.field, "kind");
        assert!(e.detail.contains("bench|fault|remodel|sleep"), "{e:?}");
        for kind in ["bench", "fault", "remodel", "sleep"] {
            let body = format!(r#"{{"kind":"{kind}","stream":true}}"#);
            assert_eq!(parse(&body).unwrap_err().field, "stream", "{body}");
        }
    }

    #[test]
    fn unknown_and_misplaced_fields_are_named() {
        let e = parse(r#"{"kind":"bench","bogus":1}"#).unwrap_err();
        assert_eq!(e.field, "bogus");
        // `fault_seed` belongs to fault requests only.
        let e = parse(r#"{"kind":"bench","fault_seed":1}"#).unwrap_err();
        assert_eq!(e.field, "fault_seed");
        let e = parse(r#"{"kind":"warp"}"#).unwrap_err();
        assert_eq!(e.field, "kind");
        let e = parse(r#"{"apps":["EP"]}"#).unwrap_err();
        assert_eq!(e.field, "kind");
    }

    #[test]
    fn hostile_values_are_structured_errors() {
        for (body, field) in [
            (r#"not json"#, "body"),
            (r#"[1,2]"#, "body"),
            (r#"{"kind":"bench","apps":[]}"#, "apps"),
            (r#"{"kind":"bench","apps":[1]}"#, "apps"),
            (r#"{"kind":"bench","scale":"huge"}"#, "scale"),
            (r#"{"kind":"bench","sizes":[0]}"#, "sizes"),
            (r#"{"kind":"bench","sizes":[999999999]}"#, "sizes"),
            (r#"{"kind":"bench","factors":[-1.0]}"#, "factors"),
            (r#"{"kind":"bench","factors":["x"]}"#, "factors"),
            (r#"{"kind":"sleep","ms":99999999}"#, "ms"),
            (r#"{"kind":"remodel"}"#, "trace"),
            (r#"{"kind":"remodel","trace":"/etc/passwd"}"#, "trace"),
            (
                r#"{"kind":"remodel","trace":"../../secret.evtrace"}"#,
                "trace",
            ),
            (r#"{"kind":"bench","apps":["EP"],"apps":["CG"]}"#, "apps"),
            (r#"{"kind":"bench","stream":"yes"}"#, "stream"),
            (r#"{"kind":"sleep","crash":"sometimes"}"#, "crash"),
            (r#"{"kind":"bench","crash":"panic"}"#, "crash"),
        ] {
            let e = parse(body).unwrap_err();
            assert_eq!(e.field, field, "{body} -> {e:?}");
        }
    }

    #[test]
    fn too_deep_body_is_reported_not_fatal() {
        let deep = format!(r#"{{"kind":{}1{}}}"#, "[".repeat(200), "]".repeat(200));
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.field, "body");
        assert!(e.detail.contains("rejected"), "{e:?}");
    }

    #[test]
    fn sleep_crash_injection_canonicalizes() {
        let plain = parse(r#"{"kind":"sleep","ms":5}"#).unwrap();
        let explicit = parse(r#"{"kind":"sleep","ms":5,"crash":null}"#).unwrap();
        assert_eq!(plain.key, explicit.key, "null crash is the default");
        let panic = parse(r#"{"kind":"sleep","ms":5,"crash":"panic"}"#).unwrap();
        assert_ne!(plain.key, panic.key, "crash mode is part of the address");
        assert_eq!(panic.field("crash").and_then(Json::as_str), Some("panic"));
    }

    #[test]
    fn apps_list_cap_is_enforced() {
        let many: Vec<String> = (0..17).map(|i| format!("\"A{i}\"")).collect();
        let body = format!(r#"{{"kind":"bench","apps":[{}]}}"#, many.join(","));
        assert_eq!(parse(&body).unwrap_err().field, "apps");
    }
}

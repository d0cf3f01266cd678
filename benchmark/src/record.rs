//! JSON plumbing shared by the child → runner protocol, the result file
//! and `compare`. Built on `radar_cli::json::Value`, the repo's reader:
//! its `Display` is compact one-line JSON, which the last output line of
//! a contract run must be.

use radar_cli::json::Value;

/// `{"k": v, …}` from pairs.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number. Non-finite values have no JSON form; they become `null`
/// and fail [`num`] on the reading side instead of printing `inf`.
pub fn n(v: f64) -> Value {
    if v.is_finite() {
        Value::Num(v)
    } else {
        Value::Null
    }
}

/// A string.
pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| n(v)).collect())
}

/// Reads number member `key`.
pub fn num(v: &Value, key: &str) -> Result<f64, String> {
    v[key]
        .as_f64()
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// Reads string member `key`.
pub fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v[key]
        .as_str()
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Reads array member `key`.
pub fn arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v[key]
        .as_array()
        .ok_or_else(|| format!("missing or non-array field {key:?}"))
}

/// Reads an array of numbers.
pub fn num_arr(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    arr(v, key)?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("non-numeric element in {key:?}"))
        })
        .collect()
}

/// Two-space-indented rendering for result files people read; arrays
/// and objects of scalars stay on one line.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(v: &Value, depth: usize, out: &mut String) {
    let pad = |d: usize| "  ".repeat(d);
    let scalar = |x: &Value| !matches!(x, Value::Arr(_) | Value::Obj(_));
    match v {
        Value::Obj(members) if !members.iter().all(|(_, x)| scalar(x)) => {
            out.push_str("{\n");
            for (i, (k, x)) in members.iter().enumerate() {
                out.push_str(&format!("{}{k:?}: ", pad(depth + 1)));
                write_pretty(x, depth + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}}}", pad(depth)));
        }
        Value::Arr(items) if !items.iter().all(scalar) => {
            out.push_str("[\n");
            for (i, x) in items.iter().enumerate() {
                out.push_str(&pad(depth + 1));
                write_pretty(x, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&format!("{}]", pad(depth)));
        }
        Value::Obj(members) => {
            let inline: Vec<String> = members.iter().map(|(k, x)| format!("{k:?}: {x}")).collect();
            out.push_str(&format!("{{{}}}", inline.join(", ")));
        }
        other => out.push_str(&other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_forms_parse_back() {
        let v = obj([
            ("name", s("a \"quoted\" name")),
            ("values", nums(&[1.0, 2.5, 6_359_896.0])),
            (
                "nested",
                obj([("empty", Value::Arr(vec![])), ("nan", n(f64::NAN))]),
            ),
            (
                "rows",
                Value::Arr(vec![obj([("x", n(1e-9))]), obj([("x", n(3.0))])]),
            ),
        ]);
        let line = v.to_string();
        assert!(!line.contains('\n'));
        assert_eq!(Value::parse(&line).unwrap(), v);
        assert_eq!(Value::parse(&pretty(&v)).unwrap(), v);
        assert_eq!(num_arr(&v, "values").unwrap(), vec![1.0, 2.5, 6_359_896.0]);
        assert_eq!(text(&v, "name").unwrap(), "a \"quoted\" name");
        assert!(num(&v["nested"], "nan").is_err());
    }
}

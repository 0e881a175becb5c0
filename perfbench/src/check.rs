//! Output checks: every forecast reply must equal, bit for bit, the
//! reference forecast computed for the same window before the timed
//! phase. The serve engine promises that a request's forecast does not
//! depend on which micro-batch it rode in, and JSON carries `f32` values
//! exactly, so any difference is a defect.

use d2stgnn_httpd::api::ForecastReply;
use d2stgnn_tensor::Array;

/// Judge one HTTP reply against the reference `[T_f, N]` forecast.
pub fn check_reply(status: u16, body: &[u8], reference: &Array) -> Result<(), String> {
    if status != 200 {
        let text = String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned();
        return Err(format!("status {status}: {text}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    let reply: ForecastReply =
        serde_json::from_str(text).map_err(|e| format!("undecodable reply: {e}"))?;
    if reply.fallback {
        return Err(format!("served by the fallback ({})", reply.model));
    }
    check_values(&reply.values, reference)
}

/// Bitwise comparison of `values[t][n]` with the reference.
pub fn check_values(values: &[Vec<f32>], reference: &Array) -> Result<(), String> {
    let shape = reference.shape();
    let (tf, n) = (shape[0], shape[1]);
    if values.len() != tf || values.iter().any(|row| row.len() != n) {
        return Err(format!(
            "reply shape differs from the reference [{tf}, {n}]"
        ));
    }
    let want = reference.data();
    for (t, row) in values.iter().enumerate() {
        for (i, v) in row.iter().enumerate() {
            let r = want[t * n + i];
            if v.to_bits() != r.to_bits() {
                return Err(format!("forecast[{t}][{i}] = {v:e}, reference {r:e}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply_json(values: Vec<Vec<f32>>, fallback: bool) -> Vec<u8> {
        serde_json::to_string(&ForecastReply {
            model: "m".into(),
            generation: 1,
            fallback,
            shard: 0,
            values,
        })
        .unwrap()
        .into_bytes()
    }

    fn reference() -> (Array, Vec<Vec<f32>>) {
        let rows = vec![vec![55.25f32, 61.0, 0.1], vec![-3.5e-7, 42.0, 7.0]];
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        (Array::from_vec(&[2, 3], flat).unwrap(), rows)
    }

    #[test]
    fn accepts_the_reference_itself() {
        let (r, rows) = reference();
        assert_eq!(check_reply(200, &reply_json(rows, false), &r), Ok(()));
    }

    #[test]
    fn rejects_a_perturbed_forecast() {
        let (r, mut rows) = reference();
        rows[1][2] = f32::from_bits(rows[1][2].to_bits() + 1);
        let err = check_reply(200, &reply_json(rows, false), &r).unwrap_err();
        assert!(err.contains("forecast[1][2]"), "{err}");
    }

    #[test]
    fn rejects_fallback_status_and_shape() {
        let (r, rows) = reference();
        assert!(check_reply(200, &reply_json(rows.clone(), true), &r).is_err());
        assert!(check_reply(503, b"{\"error\":\"shed\"}", &r).is_err());
        assert!(check_reply(200, &reply_json(rows[..1].to_vec(), false), &r).is_err());
        assert!(check_reply(200, b"not json", &r).is_err());
    }
}

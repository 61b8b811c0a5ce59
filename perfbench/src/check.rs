//! The correctness gate: every reply is compared with the answer of an
//! in-process reference [`Service`] fed the same per-connection stream.
//!
//! Answers must match bit for bit once both sides are re-encoded with
//! the binary codec (which carries `f64`s as raw IEEE bits). The one
//! field allowed to differ is `cache_hit`: which profile cache warms
//! first depends on routing (event-loop replicas, gateway fan-out), and
//! the flag is replica metadata, not an answer. An `error` reply, an
//! `accepted: false` ack, an undecodable reply, or any other difference
//! counts as a failed operation.

use predictd::{Service, ServiceConfig};
use proto::{binproto, Request, Response};

use crate::stream::{Codec, Frames};

/// The reference service and the tally of what it caught.
pub struct Gate {
    reference: Service,
    /// Replies compared.
    pub checked: u64,
    /// Replies that failed (mismatch, error, rejection, undecodable).
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Default for Gate {
    fn default() -> Self {
        Gate {
            reference: Service::with_default_predictor(ServiceConfig::default()),
            checked: 0,
            failed: 0,
            examples: Vec::new(),
        }
    }
}

/// Clears the one field allowed to differ between replicas.
fn normalized(resp: &Response) -> Response {
    let mut r = resp.clone();
    match &mut r {
        Response::Prediction(p) => p.cache_hit = false,
        Response::Decisions(d) => d.cache_hit = false,
        _ => {}
    }
    r
}

/// The binary encoding of a normalized response: equal bytes ⇔ equal
/// answers, `f64`s compared bit for bit.
fn canonical(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = binproto::encode_response(&normalized(resp), &mut out);
    out
}

/// A response as JSON text, for failure messages.
pub fn json(resp: &Response) -> String {
    serde_json::to_string(resp).unwrap_or_else(|e| format!("<unprintable: {e}>"))
}

/// Decodes one reply body in `codec`'s wire form.
pub fn decode_reply(codec: Codec, body: &[u8]) -> Result<Response, String> {
    match codec {
        Codec::Binary => binproto::decode_response(body).map_err(|e| e.to_string()),
        Codec::Json => {
            let line = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            serde_json::from_str(line).map_err(|e| e.to_string())
        }
    }
}

impl Gate {
    /// Why `actual` is not an acceptable answer to `req` (which is fed
    /// to the reference first), or `None` when it is.
    pub fn judge(&mut self, req: &Request, actual: Result<Response, String>) -> Option<String> {
        let (expected, _) = self.reference.handle(req);
        let actual = match actual {
            Ok(r) => r,
            Err(e) => return Some(format!("undecodable reply to {}: {e}", req.kind())),
        };
        match &actual {
            Response::Error(e) => {
                return Some(format!("error reply to {}: {}", req.kind(), e.message))
            }
            Response::Ack(a) if !a.accepted => {
                return Some(format!("load_report for {} rejected (accepted: false)", a.machine))
            }
            _ => {}
        }
        if canonical(&expected) != canonical(&actual) {
            return Some(format!(
                "{} answer differs from the reference: got {}, want {}",
                req.kind(),
                json(&normalized(&actual)),
                json(&normalized(&expected)),
            ));
        }
        None
    }

    /// Checks one connection's replies against its requests, in order.
    /// Requests left without a reply are fed to the reference too (the
    /// daemon may have applied them) and counted as failed.
    pub fn check_conn(&mut self, codec: Codec, reqs: &[Request], replies: &Frames) {
        for (i, req) in reqs.iter().enumerate() {
            let verdict = if i < replies.len() {
                self.judge(req, decode_reply(codec, replies.get(i)))
            } else {
                self.reference.handle(req);
                Some(format!("no reply to {} before the drain deadline", req.kind()))
            };
            self.checked += 1;
            if let Some(why) = verdict {
                self.failed += 1;
                if self.examples.len() < 5 {
                    self.examples.push(why);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{service_workload, Clock, ConnStream, PhaseInput, CONNS};
    use proto::proto::LoadReport;

    /// Honest replies: a second, independent service answers the stream.
    fn honest(codec: Codec, reqs: &[Request]) -> Frames {
        let svc = Service::with_default_predictor(ServiceConfig::default());
        let mut f = Frames::default();
        for r in reqs {
            let (resp, _) = svc.handle(r);
            match codec {
                Codec::Binary => {
                    let mut out = Vec::new();
                    binproto::encode_response(&resp, &mut out);
                    f.push(&out[4..]);
                }
                Codec::Json => f.push(json(&resp).as_bytes()),
            }
        }
        f
    }

    fn stream(name: &str) -> (Codec, Vec<Request>) {
        let w = service_workload(name).expect("workload");
        let mut streams: Vec<_> = (0..CONNS).map(|c| ConnStream::new(w, 5, c)).collect();
        let mut clock = Clock::default();
        let mut reqs = PhaseInput::warm(&mut streams, &mut clock, w.codec).reqs.swap_remove(0);
        reqs.extend(
            PhaseInput::generate(&mut streams, &mut clock, w.codec, 400).reqs.swap_remove(0),
        );
        (w.codec, reqs)
    }

    #[test]
    fn honest_replies_pass_on_every_workload() {
        for name in ["steady_predict", "churn_schedule", "gateway_fanout"] {
            let (codec, reqs) = stream(name);
            let mut gate = Gate::default();
            gate.check_conn(codec, &reqs, &honest(codec, &reqs));
            assert_eq!(gate.failed, 0, "{name}: {:?}", gate.examples);
            assert_eq!(gate.checked, reqs.len() as u64);
        }
    }

    #[test]
    fn an_injected_wrong_answer_is_caught() {
        let (codec, reqs) = stream("churn_schedule");
        let svc = Service::with_default_predictor(ServiceConfig::default());
        let mut gate = Gate::default();
        let mut wrong = 0;
        for req in &reqs {
            let (mut resp, _) = svc.handle(req);
            if let Response::Prediction(p) = &mut resp {
                if wrong == 0 {
                    // One ulp off in one field of one answer.
                    p.decision.c_to = contention_model::units::secs(f64::from_bits(
                        p.decision.c_to.get().to_bits() + 1,
                    ));
                    wrong += 1;
                }
            }
            let mut bin = Vec::new();
            binproto::encode_response(&resp, &mut bin);
            let actual = decode_reply(Codec::Binary, &bin[4..]);
            if let Some(why) = gate.judge(req, actual) {
                gate.failed += 1;
                gate.examples.push(why);
            }
        }
        let _ = codec;
        assert_eq!(wrong, 1);
        assert_eq!(gate.failed, 1, "{:?}", gate.examples);
        assert!(gate.examples[0].contains("differs"));
    }

    #[test]
    fn cache_hit_is_the_one_field_allowed_to_differ() {
        let (_, reqs) = stream("steady_predict");
        let svc = Service::with_default_predictor(ServiceConfig::default());
        let mut gate = Gate::default();
        for req in &reqs {
            let (mut resp, _) = svc.handle(req);
            if let Response::Prediction(p) = &mut resp {
                p.cache_hit = !p.cache_hit;
            }
            assert_eq!(gate.judge(req, Ok(resp)), None);
        }
    }

    #[test]
    fn a_time_regressing_report_is_caught() {
        let report = |at: f64| {
            Request::LoadReport(LoadReport {
                machine: "m".to_string(),
                at,
                load: 2.0,
                comm_frac: 0.5,
            })
        };
        let reqs = [report(5.0), report(3.0)];
        let mut gate = Gate::default();
        // The replies are the daemon's honest ones, so the second ack says
        // accepted: false — and the reference agrees. It still fails.
        gate.check_conn(Codec::Json, &reqs, &honest(Codec::Json, &reqs));
        assert_eq!(gate.checked, 2);
        assert_eq!(gate.failed, 1, "{:?}", gate.examples);
        assert!(gate.examples[0].contains("rejected"));
    }

    #[test]
    fn a_missing_reply_is_a_failure() {
        let (codec, reqs) = stream("steady_predict");
        let mut replies = honest(codec, &reqs);
        let mut short = Frames::default();
        for i in 0..replies.len() - 1 {
            short.push(replies.get(i));
        }
        replies = short;
        let mut gate = Gate::default();
        gate.check_conn(codec, &reqs, &replies);
        assert_eq!(gate.failed, 1);
    }
}

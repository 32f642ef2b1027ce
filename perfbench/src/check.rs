//! Reply checks applied to every reply of every run.

use crate::workload::WireRequest;

/// The numbers of one `PLAN` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanLine {
    /// `sadms=`.
    pub sadms: usize,
    /// `wavelengths=`.
    pub wavelengths: usize,
}

/// Parses a one-item reply: `RESULT <id> count=1`, one `PLAN 0` line with
/// `timed_out=false cancelled=false`, then `END`. Anything else (an
/// `ERROR`, `ERR` or `REJECTED` line, a timed-out or cancelled plan, a
/// wrong id) is a failure.
pub fn parse_reply(id: u64, reply: &str) -> Result<PlanLine, String> {
    let lines: Vec<&str> = reply.lines().collect();
    let [result, plan, end] = lines[..] else {
        return Err(format!("request {id}: not a one-item RESULT: {reply:?}"));
    };
    if result != format!("RESULT {id} count=1") || end != "END" {
        return Err(format!("request {id}: bad RESULT framing: {reply:?}"));
    }
    let mut fields = plan.split_whitespace();
    if fields.next() != Some("PLAN") || fields.next() != Some("0") {
        return Err(format!("request {id}: expected a PLAN line, got {plan:?}"));
    }
    let mut sadms = None;
    let mut wavelengths = None;
    for field in fields {
        match field.split_once('=') {
            Some(("sadms", v)) => sadms = v.parse().ok(),
            Some(("wavelengths", v)) => wavelengths = v.parse().ok(),
            Some(("timed_out", "false")) | Some(("cancelled", "false")) => {}
            _ => return Err(format!("request {id}: unexpected PLAN field {field:?}")),
        }
    }
    match (sadms, wavelengths) {
        (Some(sadms), Some(wavelengths)) => Ok(PlanLine { sadms, wavelengths }),
        _ => Err(format!("request {id}: PLAN line lacks costs: {plan:?}")),
    }
}

/// Checks a reply against its request: a well-formed plan with
/// `sadms ≥ bounds::lower_bound` and `wavelengths ≥ ⌈m/k⌉`.
///
/// A mesh plan covers only the demands capacity repair carried. When
/// `blocked_anywhere` demands were blocked somewhere in the run (the
/// wire does not say which request lost them), a mesh plan is held to
/// the bounds of its smallest possible carried set instead: `m − blocked`
/// demands need `⌈(m − blocked)/k⌉` wavelengths of at least two SADMs.
pub fn check_reply(
    request: &WireRequest,
    reply: &str,
    blocked_anywhere: usize,
) -> Result<PlanLine, String> {
    let plan = parse_reply(request.id, reply)?;
    let e = &request.expect;
    let (carried_min, sadm_floor) = if e.mesh && blocked_anywhere > 0 {
        let carried = e.demands.saturating_sub(blocked_anywhere);
        (carried, 2 * carried.div_ceil(e.k))
    } else {
        (e.demands, e.lower_bound)
    };
    if plan.sadms < sadm_floor {
        return Err(format!(
            "request {}: sadms={} below the lower bound {sadm_floor}",
            request.id, plan.sadms
        ));
    }
    let min_w = carried_min.div_ceil(e.k);
    if plan.wavelengths < min_w {
        return Err(format!(
            "request {}: wavelengths={} below ⌈m/k⌉ = {min_w}",
            request.id, plan.wavelengths
        ));
    }
    Ok(plan)
}

/// Parses the `key=value` fields of a `STATS` line.
pub fn stats_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .filter_map(|f| f.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Expect;

    fn request(mesh: bool) -> WireRequest {
        WireRequest {
            id: 7,
            bytes: String::new(),
            expect: Expect {
                demands: 40,
                k: 8,
                lower_bound: 30,
                mesh,
            },
        }
    }

    fn reply(plan: &str) -> String {
        format!("RESULT 7 count=1\n{plan}\nEND\n")
    }

    #[test]
    fn accepts_a_plan_within_its_bounds() {
        let ok = reply("PLAN 0 sadms=30 wavelengths=5 timed_out=false cancelled=false");
        let plan = check_reply(&request(false), &ok, 0).unwrap();
        assert_eq!(
            plan,
            PlanLine {
                sadms: 30,
                wavelengths: 5
            }
        );
    }

    #[test]
    fn rejects_failures_truncations_and_plans_below_the_bounds() {
        for bad in [
            reply("ERROR 0 no plan"),
            reply("PLAN 0 sadms=30 wavelengths=5 timed_out=true cancelled=false"),
            reply("PLAN 0 sadms=30 wavelengths=5 timed_out=false cancelled=true"),
            reply("PLAN 0 sadms=29 wavelengths=5 timed_out=false cancelled=false"),
            reply("PLAN 0 sadms=30 wavelengths=4 timed_out=false cancelled=false"),
            "REJECTED 7 queue_full depth=1 cost=2\n".to_string(),
            "RESULT 8 count=1\nPLAN 0 sadms=30 wavelengths=5 timed_out=false cancelled=false\nEND\n"
                .to_string(),
        ] {
            assert!(check_reply(&request(false), &bad, 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn blocking_relaxes_only_mesh_plans() {
        // 8 blocked demands leave at least 32 carried: 4 wavelengths, 8 SADMs.
        let thin = reply("PLAN 0 sadms=8 wavelengths=4 timed_out=false cancelled=false");
        assert!(check_reply(&request(true), &thin, 8).is_ok());
        assert!(check_reply(&request(true), &thin, 0).is_err());
        assert!(check_reply(&request(false), &thin, 8).is_err());
    }
}

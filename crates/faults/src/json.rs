//! Hand-rolled JSON (de)serialization for [`FaultPlan`] — the on-disk
//! scenario format behind the CLI's `--faults <plan.json>` flag.
//!
//! Documents are read with the workspace's one JSON parser
//! ([`bsmp_trace::json::parse`]) and then checked against the schema:
//! one object of optional sections, each an object of numeric fields.
//! Every section is optional and defaults to its `None` model, so `{}`
//! parses to [`FaultPlan::none`].
//!
//! ```json
//! {
//!   "seed": 42,
//!   "slowdown": {"model": "lognormal", "mu": 0.2, "sigma": 0.5},
//!   "link": {"spread": 0.5},
//!   "loss": {"loss_permille": 50, "max_retries": 3},
//!   "crash": {"crash_permille": 10},
//!   "outage": {"region": {"lo": 0, "hi": 2}, "onset": 4, "duration": 3, "period": 10},
//!   "churn": {"leave_permille": 30, "down_stages": 2, "max_retries": 6, "backoff_hops": 1.0}
//! }
//! ```
//!
//! Slowdown models: `constant {nu}`, `jitter {lo, hi}`,
//! `lognormal {mu, sigma}`, `pareto {xm, alpha}`.  Crash models:
//! `{at_stage, proc}` or `{crash_permille}`.  Outage regions:
//! `{lo, hi}` (interval) or `{r0, r1, c0, c1}` (tile).
//!
//! Parsing only checks shape; callers run [`FaultPlan::validate`] for
//! the semantic checks, so a well-formed file with a bad parameter gets
//! the same typed [`FaultError`](crate::plan::FaultError) as a plan
//! built in code.

use std::error::Error;
use std::fmt;

use bsmp_trace::json::{num, parse, Val};

use crate::plan::{
    ChurnModel, CrashModel, FaultPlan, LinkModel, LossModel, OutageModel, Region, SlowdownModel,
};

/// A malformed fault-plan document (syntax or shape; semantic range
/// checks stay in [`FaultPlan::validate`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanParseError {
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed fault plan: {}", self.message)
    }
}

impl Error for PlanParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, PlanParseError> {
    Err(PlanParseError {
        message: message.into(),
    })
}

fn get_f64(v: &Val, key: &str, section: &str) -> Result<f64, PlanParseError> {
    match v.get(key) {
        Some(Val::Num(x)) => Ok(*x),
        Some(_) => err(format!("'{section}.{key}' must be a number")),
        None => err(format!("'{section}' is missing field '{key}'")),
    }
}

fn get_u64(v: &Val, key: &str, section: &str) -> Result<u64, PlanParseError> {
    let x = get_f64(v, key, section)?;
    if x < 0.0 || x.fract() != 0.0 || x > 9.007_199_254_740_992e15 {
        return err(format!(
            "'{section}.{key}' must be a non-negative integer, got {x}"
        ));
    }
    Ok(x as u64)
}

fn get_u32(v: &Val, key: &str, section: &str) -> Result<u32, PlanParseError> {
    let x = get_u64(v, key, section)?;
    u32::try_from(x).map_err(|_| PlanParseError {
        message: format!("'{section}.{key}' does not fit in u32: {x}"),
    })
}

fn check_keys(v: &Val, allowed: &[&str], section: &str) -> Result<(), PlanParseError> {
    if let Val::Obj(fields) = v {
        for (k, _) in fields {
            if !allowed.contains(&k.as_str()) {
                return err(format!("unknown field '{k}' in '{section}'"));
            }
        }
    }
    Ok(())
}

fn parse_slowdown(v: &Val) -> Result<SlowdownModel, PlanParseError> {
    let model = match v.get("model") {
        Some(Val::Str(s)) => s.as_str(),
        _ => return err("'slowdown' needs a string field 'model'"),
    };
    match model {
        "constant" => {
            check_keys(v, &["model", "nu"], "slowdown")?;
            Ok(SlowdownModel::Constant(get_f64(v, "nu", "slowdown")?))
        }
        "jitter" => {
            check_keys(v, &["model", "lo", "hi"], "slowdown")?;
            Ok(SlowdownModel::Jitter {
                lo: get_f64(v, "lo", "slowdown")?,
                hi: get_f64(v, "hi", "slowdown")?,
            })
        }
        "lognormal" => {
            check_keys(v, &["model", "mu", "sigma"], "slowdown")?;
            Ok(SlowdownModel::Lognormal {
                mu: get_f64(v, "mu", "slowdown")?,
                sigma: get_f64(v, "sigma", "slowdown")?,
            })
        }
        "pareto" => {
            check_keys(v, &["model", "xm", "alpha"], "slowdown")?;
            Ok(SlowdownModel::Pareto {
                xm: get_f64(v, "xm", "slowdown")?,
                alpha: get_f64(v, "alpha", "slowdown")?,
            })
        }
        other => err(format!(
            "unknown slowdown model '{other}' (expected constant, jitter, lognormal, or pareto)"
        )),
    }
}

fn parse_region(v: &Val) -> Result<Region, PlanParseError> {
    let region = match v.get("region") {
        Some(r @ Val::Obj(_)) => r,
        _ => return err("'outage' needs an object field 'region'"),
    };
    if region.get("lo").is_some() || region.get("hi").is_some() {
        check_keys(region, &["lo", "hi"], "outage.region")?;
        Ok(Region::Interval {
            lo: get_u64(region, "lo", "outage.region")? as usize,
            hi: get_u64(region, "hi", "outage.region")? as usize,
        })
    } else {
        check_keys(region, &["r0", "r1", "c0", "c1"], "outage.region")?;
        Ok(Region::Tile {
            r0: get_u64(region, "r0", "outage.region")? as usize,
            r1: get_u64(region, "r1", "outage.region")? as usize,
            c0: get_u64(region, "c0", "outage.region")? as usize,
            c1: get_u64(region, "c1", "outage.region")? as usize,
        })
    }
}

impl FaultPlan {
    /// Parse a fault plan from its JSON document.  Shape errors come
    /// back as [`PlanParseError`]; run
    /// [`FaultPlan::validate`] afterwards for the semantic checks.
    pub fn from_json(src: &str) -> Result<FaultPlan, PlanParseError> {
        let doc = parse(src).map_err(|message| PlanParseError { message })?;
        if !matches!(doc, Val::Obj(_)) {
            return err("a fault plan is a JSON object");
        }
        check_keys(
            &doc,
            &[
                "seed", "slowdown", "link", "loss", "crash", "outage", "churn",
            ],
            "plan",
        )?;
        let mut plan = FaultPlan::none();
        if doc.get("seed").is_some() {
            plan.seed = get_u64(&doc, "seed", "plan")?;
        }
        if let Some(v) = doc.get("slowdown") {
            plan.slowdown = parse_slowdown(v)?;
        }
        if let Some(v) = doc.get("link") {
            check_keys(v, &["spread"], "link")?;
            plan.link = LinkModel::Asymmetric {
                spread: get_f64(v, "spread", "link")?,
            };
        }
        if let Some(v) = doc.get("loss") {
            check_keys(v, &["loss_permille", "max_retries"], "loss")?;
            plan.loss = LossModel::Bernoulli {
                loss_permille: get_u32(v, "loss_permille", "loss")?,
                max_retries: get_u32(v, "max_retries", "loss")?,
            };
        }
        if let Some(v) = doc.get("crash") {
            if v.get("at_stage").is_some() || v.get("proc").is_some() {
                check_keys(v, &["at_stage", "proc"], "crash")?;
                plan.crash = CrashModel::AtStage {
                    stage: get_u64(v, "at_stage", "crash")?,
                    proc: get_u64(v, "proc", "crash")? as usize,
                };
            } else {
                check_keys(v, &["crash_permille"], "crash")?;
                plan.crash = CrashModel::Random {
                    crash_permille: get_u32(v, "crash_permille", "crash")?,
                };
            }
        }
        if let Some(v) = doc.get("outage") {
            check_keys(v, &["region", "onset", "duration", "period"], "outage")?;
            plan.outage = OutageModel::Storm {
                region: parse_region(v)?,
                onset: get_u64(v, "onset", "outage")?,
                duration: get_u64(v, "duration", "outage")?,
                period: match v.get("period") {
                    Some(_) => get_u64(v, "period", "outage")?,
                    None => 0,
                },
            };
        }
        if let Some(v) = doc.get("churn") {
            check_keys(
                v,
                &[
                    "leave_permille",
                    "down_stages",
                    "max_retries",
                    "backoff_hops",
                ],
                "churn",
            )?;
            plan.churn = ChurnModel::Poisson {
                leave_permille: get_u32(v, "leave_permille", "churn")?,
                down_stages: get_u64(v, "down_stages", "churn")?,
                max_retries: get_u32(v, "max_retries", "churn")?,
                backoff_hops: match v.get("backoff_hops") {
                    Some(_) => get_f64(v, "backoff_hops", "churn")?,
                    None => 1.0,
                },
            };
        }
        Ok(plan)
    }

    /// Serialize to the JSON document [`FaultPlan::from_json`] reads.
    pub fn to_json(&self) -> String {
        let mut sections: Vec<String> = vec![format!("  \"seed\": {}", self.seed)];
        match self.slowdown {
            SlowdownModel::None => {}
            SlowdownModel::Constant(nu) => sections.push(format!(
                "  \"slowdown\": {{\"model\": \"constant\", \"nu\": {}}}",
                num(nu)
            )),
            SlowdownModel::Jitter { lo, hi } => sections.push(format!(
                "  \"slowdown\": {{\"model\": \"jitter\", \"lo\": {}, \"hi\": {}}}",
                num(lo),
                num(hi)
            )),
            SlowdownModel::Lognormal { mu, sigma } => sections.push(format!(
                "  \"slowdown\": {{\"model\": \"lognormal\", \"mu\": {}, \"sigma\": {}}}",
                num(mu),
                num(sigma)
            )),
            SlowdownModel::Pareto { xm, alpha } => sections.push(format!(
                "  \"slowdown\": {{\"model\": \"pareto\", \"xm\": {}, \"alpha\": {}}}",
                num(xm),
                num(alpha)
            )),
        }
        if let LinkModel::Asymmetric { spread } = self.link {
            sections.push(format!("  \"link\": {{\"spread\": {}}}", num(spread)));
        }
        if let LossModel::Bernoulli {
            loss_permille,
            max_retries,
        } = self.loss
        {
            sections.push(format!(
                "  \"loss\": {{\"loss_permille\": {loss_permille}, \"max_retries\": {max_retries}}}"
            ));
        }
        match self.crash {
            CrashModel::None => {}
            CrashModel::AtStage { stage, proc } => sections.push(format!(
                "  \"crash\": {{\"at_stage\": {stage}, \"proc\": {proc}}}"
            )),
            CrashModel::Random { crash_permille } => sections.push(format!(
                "  \"crash\": {{\"crash_permille\": {crash_permille}}}"
            )),
        }
        if let OutageModel::Storm {
            region,
            onset,
            duration,
            period,
        } = self.outage
        {
            let region = match region {
                Region::Interval { lo, hi } => format!("{{\"lo\": {lo}, \"hi\": {hi}}}"),
                Region::Tile { r0, r1, c0, c1 } => {
                    format!("{{\"r0\": {r0}, \"r1\": {r1}, \"c0\": {c0}, \"c1\": {c1}}}")
                }
            };
            sections.push(format!(
                "  \"outage\": {{\"region\": {region}, \"onset\": {onset}, \"duration\": {duration}, \"period\": {period}}}"
            ));
        }
        if let ChurnModel::Poisson {
            leave_permille,
            down_stages,
            max_retries,
            backoff_hops,
        } = self.churn
        {
            sections.push(format!(
                "  \"churn\": {{\"leave_permille\": {leave_permille}, \"down_stages\": {down_stages}, \"max_retries\": {max_retries}, \"backoff_hops\": {}}}",
                num(backoff_hops)
            ));
        }
        format!("{{\n{}\n}}\n", sections.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_is_the_none_plan() {
        let plan = FaultPlan::from_json("{}").unwrap();
        assert_eq!(plan, FaultPlan::none());
        assert!(plan.is_none());
    }

    #[test]
    fn full_plan_round_trips() {
        let plan = FaultPlan::none()
            .seed(42)
            .lognormal(0.2, 0.5)
            .asymmetric(0.5)
            .loss(50, 3)
            .random_crashes(10)
            .storm(Region::Interval { lo: 0, hi: 2 }, 4, 3, 10)
            .churn(30, 2, 6, 1.0);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        back.validate().unwrap();
    }

    #[test]
    fn tile_region_and_at_stage_crash_round_trip() {
        let plan = FaultPlan::none()
            .seed(7)
            .pareto(1.5, 2.0)
            .crash_at(5, 2)
            .storm(
                Region::Tile {
                    r0: 0,
                    r1: 1,
                    c0: 0,
                    c1: 2,
                },
                2,
                1,
                0,
            );
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn parses_handwritten_document() {
        let doc = r#"{
            "seed": 9,
            "slowdown": {"model": "jitter", "lo": 1.0, "hi": 2.5},
            "loss": {"loss_permille": 100, "max_retries": 4},
            "churn": {"leave_permille": 20, "down_stages": 3, "max_retries": 8}
        }"#;
        let plan = FaultPlan::from_json(doc).unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.slowdown, SlowdownModel::Jitter { lo: 1.0, hi: 2.5 });
        assert_eq!(
            plan.churn,
            ChurnModel::Poisson {
                leave_permille: 20,
                down_stages: 3,
                max_retries: 8,
                backoff_hops: 1.0,
            }
        );
        plan.validate().unwrap();
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1, 2]",
            "{\"seed\": -1}",
            "{\"seed\": 1.5}",
            "{\"seed\": null}",
            "{\"seed\": true}",
            "{\"seed\": [1]}",
            "{\"link\": {\"spread\": false}}",
            "{\"slowdown\": {\"model\": \"constant\", \"nu\": null}}",
            "{\"loss\": {\"loss_permille\": [50], \"max_retries\": 3}}",
            "{\"outage\": {\"region\": [0, 2], \"onset\": 1, \"duration\": 1}}",
            "{\"unknown\": 3}",
            "{\"slowdown\": {\"model\": \"warp\"}}",
            "{\"slowdown\": {\"model\": \"constant\"}}",
            "{\"outage\": {\"onset\": 1, \"duration\": 1}}",
            "{\"churn\": {\"leave_permille\": 10}}",
            "{} trailing",
        ] {
            let e = FaultPlan::from_json(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "no message for {bad:?}");
        }
    }

    #[test]
    fn shape_ok_but_invalid_parameters_fail_validate() {
        let doc = r#"{"slowdown": {"model": "constant", "nu": 0.5}}"#;
        let plan = FaultPlan::from_json(doc).unwrap();
        assert!(plan.validate().is_err());
    }
}

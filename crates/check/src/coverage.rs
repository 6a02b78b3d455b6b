//! Pass 3: audit rule-pack coverage.
//!
//! The protocol auditor (`memscale-audit`) re-derives latencies from the raw
//! [`DramTimingConfig`] while replaying command streams, so every timing
//! parameter it *guards* is protected against a timing-engine bug that
//! honors the wrong value. This pass closes the loop in the other direction:
//! it walks the full parameter universe ([`TimingParam::ALL`]) and demands
//! that every parameter relevant to the generation is guarded by at least
//! one rule in the generation's pack ([`Rule::rule_pack`]) or explicitly
//! waived in `crates/check/waivers.txt` with a justification.
//!
//! Waivers are themselves checked: a waiver for a field the pack guards
//! anyway is *stale*, and a waiver naming an unknown field is an error, so
//! the list cannot rot as rules are added.

use memscale_audit::Rule;
use memscale_types::config::{DramTimingConfig, MemGeneration};
use memscale_types::invariants::{Diagnostic, TimingParam};

/// The bundled waiver list (`crates/check/waivers.txt`).
pub const WAIVERS: &str = include_str!("../waivers.txt");

/// One parsed waiver line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver<'a> {
    /// Generation the waiver applies to; `None` means every generation.
    pub generation: Option<MemGeneration>,
    /// The waived `DramTimingConfig` field.
    pub field: &'a str,
    /// Why the parameter cannot be guarded.
    pub justification: &'a str,
}

/// Parses the waiver format: one `<generation|*> <field> <justification>`
/// per line, `#` comments and blank lines ignored. Malformed lines become
/// `coverage-waiver-unknown` diagnostics (attributed to `gen`) rather than
/// silently dropped waivers.
pub fn parse_waivers<'a>(
    text: &'a str,
    gen: MemGeneration,
    out: &mut Vec<Diagnostic>,
) -> Vec<Waiver<'a>> {
    let mut waivers = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (scope, field, justification) = (parts.next(), parts.next(), parts.next());
        let (Some(scope), Some(field), Some(justification)) = (scope, field, justification) else {
            out.push(Diagnostic::new(
                "coverage-waiver-unknown",
                gen,
                format!(
                    "waivers.txt:{}: expected `<generation|*> <field> \
                     <justification>`, got `{line}`",
                    lineno + 1
                ),
                vec![],
            ));
            continue;
        };
        let generation = if scope == "*" {
            None
        } else if let Some(g) = MemGeneration::parse(scope) {
            Some(g)
        } else {
            out.push(Diagnostic::new(
                "coverage-waiver-unknown",
                gen,
                format!(
                    "waivers.txt:{}: unknown generation `{scope}` (use \
                     ddr3|ddr4|lpddr3|*)",
                    lineno + 1
                ),
                vec![],
            ));
            continue;
        };
        waivers.push(Waiver {
            generation,
            field,
            justification,
        });
    }
    waivers
}

/// Coverage analysis for `cfg` with the pack the auditor would arm for it
/// and the bundled waiver list.
pub fn check_coverage(cfg: &DramTimingConfig) -> Vec<Diagnostic> {
    check_coverage_with(cfg, &Rule::rule_pack(cfg), WAIVERS)
}

/// Coverage analysis against an explicit `pack` and waiver text. The
/// mutation self-tests use this to prove that removing a rule from a pack,
/// or letting a waiver go stale, is detected.
pub fn check_coverage_with(
    cfg: &DramTimingConfig,
    pack: &[Rule],
    waivers: &str,
) -> Vec<Diagnostic> {
    let gen = cfg.generation;
    let mut out = Vec::new();
    let applicable: Vec<Waiver<'_>> = parse_waivers(waivers, gen, &mut out)
        .into_iter()
        .filter(|w| w.generation.is_none_or(|g| g == gen))
        .collect();
    let guarded: Vec<TimingParam> = pack
        .iter()
        .flat_map(|r| r.guarded_params().iter().copied())
        .collect();

    for param in TimingParam::ALL {
        if !param.relevant_for(gen) || guarded.contains(&param) {
            continue;
        }
        if applicable.iter().any(|w| w.field == param.field()) {
            continue;
        }
        out.push(Diagnostic::new(
            "coverage-unguarded",
            gen,
            format!(
                "no rule in the {gen} audit pack guards `{}` ({}): a timing \
                 engine honoring the wrong value would replay clean; add a \
                 rule or waive it in crates/check/waivers.txt",
                param.field(),
                param.jedec()
            ),
            vec![(param.field(), param.value(cfg))],
        ));
    }

    for w in &applicable {
        let Some(param) = TimingParam::ALL.into_iter().find(|p| p.field() == w.field) else {
            out.push(Diagnostic::new(
                "coverage-waiver-unknown",
                gen,
                format!(
                    "waiver names unknown field `{}`: not a DramTimingConfig \
                     timing parameter",
                    w.field
                ),
                vec![],
            ));
            continue;
        };
        if guarded.contains(&param) {
            out.push(Diagnostic::new(
                "coverage-waiver-stale",
                gen,
                format!(
                    "waiver for `{}` is stale: the {gen} pack already guards \
                     it; remove the line from crates/check/waivers.txt",
                    w.field
                ),
                vec![],
            ));
        } else if w.generation.is_some() && !param.relevant_for(gen) {
            out.push(Diagnostic::new(
                "coverage-waiver-stale",
                gen,
                format!(
                    "waiver for `{}` is stale: the parameter is structurally \
                     inert on {gen}, so no guard is required",
                    w.field
                ),
                vec![],
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_packs_cover_every_relevant_parameter() {
        for gen in MemGeneration::ALL {
            let cfg = DramTimingConfig::for_generation(gen);
            let diags = check_coverage(&cfg);
            assert!(diags.is_empty(), "{gen}: {diags:#?}");
        }
    }

    #[test]
    fn bundled_waivers_parse_cleanly() {
        let mut out = Vec::new();
        let waivers = parse_waivers(WAIVERS, MemGeneration::Ddr3, &mut out);
        assert!(out.is_empty(), "{out:#?}");
        assert_eq!(waivers.len(), 1);
        assert_eq!(waivers[0].field, "mc_pipeline_cycles");
        assert_eq!(waivers[0].generation, None);
        assert!(!waivers[0].justification.is_empty());
    }

    #[test]
    fn dropping_a_rule_is_detected() {
        let cfg = DramTimingConfig::default();
        let pack: Vec<Rule> = Rule::rule_pack(&cfg)
            .into_iter()
            .filter(|r| *r != Rule::TRcd)
            .collect();
        let diags = check_coverage_with(&cfg, &pack, WAIVERS);
        assert!(diags.iter().any(|d| d.invariant == "coverage-unguarded"
            && d.params.contains(&("t_rcd_ns", cfg.t_rcd_ns))));
    }

    #[test]
    fn waiver_hygiene_is_enforced() {
        let cfg = DramTimingConfig::default();
        let pack = Rule::rule_pack(&cfg);
        let stale = "* t_rcd_ns it is definitely fine\n* mc_pipeline_cycles reason\n";
        let diags = check_coverage_with(&cfg, &pack, stale);
        assert!(diags.iter().any(|d| d.invariant == "coverage-waiver-stale"));

        let unknown = "* not_a_field reason\n* mc_pipeline_cycles reason\n";
        let diags = check_coverage_with(&cfg, &pack, unknown);
        assert!(diags
            .iter()
            .any(|d| d.invariant == "coverage-waiver-unknown"));

        let malformed = "ddr9 t_rcd_ns reason\nnonsense\n* mc_pipeline_cycles reason\n";
        let diags = check_coverage_with(&cfg, &pack, malformed);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.invariant == "coverage-waiver-unknown")
                .count(),
            2
        );
    }
}

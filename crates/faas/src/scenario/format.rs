//! The line-oriented `key = value` scenario spec format.
//!
//! Hand-rolled on purpose: the workspace's dependencies are vendored
//! offline shims, so there is no serde — and the format is small
//! enough that a real parser with line-numbered errors is less code
//! than a derive would hide. Grammar:
//!
//! ```text
//! # comment (full-line only)
//! key = value
//! backend = squeezy, virtio-mem      # lists are comma-separated
//! host_capacity = 6GiB               # byte sizes take KiB/MiB/GiB
//! slo.html = 500.0                   # per-function SLO override (ms)
//! ```
//!
//! [`Scenario::render`] emits every key in canonical order and
//! [`Scenario::parse`] accepts keys in any order, so
//! `parse(render(s)) == s` for every valid scenario — the
//! `scenario_roundtrip` property test pins it.

use mem_types::{GIB, MIB};
use workloads::FunctionKind;

use super::{Scenario, Topology, WorkloadSpec};
use crate::cluster::RouterKind;
use crate::config::BackendKind;
use crate::fleet::PolicyKind;

/// Every scalar spec key, in canonical render order (`slo.*` lines
/// follow `mtbf_s`). Must stay in sync with the parser's dispatch
/// below — the `registry_help_lists_everything` test cross-checks it.
pub(crate) const KEYS: [&str; 24] = [
    "name",
    "topology",
    "backend",
    "workload",
    "tenants",
    "rps",
    "trough_rps",
    "period_s",
    "zipf_exponent",
    "burst_factor",
    "burst_duty",
    "duration_s",
    "concurrency",
    "keepalive_s",
    "host_capacity",
    "router",
    "policy",
    "min_hosts",
    "max_hosts",
    "boot_delay_s",
    "cooldown_s",
    "mtbf_s",
    "seed",
    "trials",
];

/// Renders a byte count the way specs write them: whole `GiB`/`MiB`/
/// `KiB` when exact, raw bytes otherwise. Round-trips through
/// [`parse_bytes`].
pub(crate) fn render_bytes(b: u64) -> String {
    if b.is_multiple_of(GIB) {
        format!("{}GiB", b / GIB)
    } else if b.is_multiple_of(MIB) {
        format!("{}MiB", b / MIB)
    } else if b.is_multiple_of(1024) {
        format!("{}KiB", b / 1024)
    } else {
        format!("{b}")
    }
}

/// Parses `4GiB` / `512MiB` / `64KiB` / plain bytes.
fn parse_bytes(v: &str) -> Result<u64, String> {
    let (digits, unit) = match v {
        _ if v.ends_with("GiB") => (&v[..v.len() - 3], GIB),
        _ if v.ends_with("MiB") => (&v[..v.len() - 3], MIB),
        _ if v.ends_with("KiB") => (&v[..v.len() - 3], 1024),
        _ => (v, 1),
    };
    let n: u64 = digits.parse().map_err(|_| {
        format!("expected a byte size like `6GiB`, `512MiB` or plain bytes, got {v:?}")
    })?;
    n.checked_mul(unit)
        .ok_or_else(|| format!("byte size {v:?} overflows"))
}

/// Parses a `u64` in decimal or `0x`-prefixed hex (seeds read nicer in
/// hex).
pub(crate) fn parse_u64(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("expected an unsigned integer, got {v:?}"))
}

fn parse_f64(v: &str) -> Result<f64, String> {
    v.parse()
        .map_err(|_| format!("expected a number, got {v:?}"))
}

/// Range-checked narrowing: a spec value that doesn't fit the field's
/// type is an error, never a silent truncation.
pub(crate) fn parse_int<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    T::try_from(parse_u64(v)?).map_err(|_| format!("value {v} is out of range for this key"))
}

/// Scans spec text into trimmed `(lineno, key, value)` pairs, skipping
/// blank and `#` lines. Malformed lines and duplicate keys go to
/// `errs`; scanning continues so a bad spec reports every problem at
/// once. Shared by [`Scenario::parse`] and the sweep-grid parser.
pub(crate) fn scan_pairs<'a>(
    text: &'a str,
    errs: &mut Vec<String>,
) -> Vec<(usize, &'a str, &'a str)> {
    let mut pairs: Vec<(usize, &str, &str)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = i + 1;
        let Some((k, v)) = line.split_once('=') else {
            errs.push(format!(
                "line {lineno}: expected `key = value`, got {line:?}"
            ));
            continue;
        };
        let (k, v) = (k.trim(), v.trim());
        if k.is_empty() || v.is_empty() {
            errs.push(format!(
                "line {lineno}: expected `key = value`, got {line:?}"
            ));
            continue;
        }
        if let Some(&(prev, _, _)) = pairs.iter().find(|&&(_, pk, _)| pk == k) {
            errs.push(format!(
                "line {lineno}: key `{k}` already set on line {prev}"
            ));
            continue;
        }
        pairs.push((lineno, k, v));
    }
    pairs
}

/// Builds a [`Scenario`] from scanned pairs — shape keys first, then
/// [`Scenario::apply_key`] per pair — without validating. `None` when
/// a shape key is missing or unparsable (those errors are in `errs`,
/// alongside any per-key failures).
pub(crate) fn build_scenario(
    pairs: &[(usize, &str, &str)],
    errs: &mut Vec<String>,
) -> Option<Scenario> {
    let find = |key: &str| pairs.iter().find(|&&(_, k, _)| k == key).copied();
    let at = |lineno: usize, key: &str, e: String| format!("line {lineno}: {key}: {e}");

    // The shape keys decide how the rest is interpreted, so their
    // absence is fatal for this pass — but still reported together.
    let name = find("name").map(|(_, _, v)| v);
    let topology = find("topology").map(|(ln, _, v)| (ln, Topology::from_key(v)));
    let workload = find("workload").map(|(ln, _, v)| (ln, WorkloadSpec::from_key(v)));
    for (key, present) in [
        ("name", name.is_some()),
        ("topology", topology.is_some()),
        ("workload", workload.is_some()),
    ] {
        if !present {
            errs.push(format!("missing required key `{key}`"));
        }
    }
    if let Some((ln, Err(e))) = &topology {
        errs.push(at(*ln, "topology", e.clone()));
    }
    if let Some((ln, Err(e))) = &workload {
        errs.push(at(*ln, "workload", e.clone()));
    }
    let (Some(name), Some((_, Ok(topology))), Some((_, Ok(workload)))) = (name, topology, workload)
    else {
        return None;
    };

    let mut s = Scenario::new(name, topology, workload);
    for &(lineno, key, value) in pairs {
        if let Err(e) = Scenario::apply_key(&mut s, key, value) {
            errs.push(at(lineno, key, e));
        }
    }
    // Canonical override order, so `parse ∘ render` is the
    // identity regardless of line order in the source.
    s.slo
        .sort_by_key(|&(kind, _)| FunctionKind::ALL.iter().position(|&k| k == kind).unwrap());
    Some(s)
}

impl Scenario {
    /// Renders the spec in the canonical `key = value` form:
    /// every key, in `KEYS` order, plus one `slo.<function>` line per
    /// override. `parse(render(s)) == s` for every valid scenario.
    pub fn render(&self) -> String {
        let p = &self.params;
        let backends: Vec<&str> = self.backends.iter().map(|b| b.key()).collect();
        let mut out = String::new();
        let mut kv = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        kv("name", self.name.clone());
        kv("topology", self.topology.key());
        kv("backend", backends.join(", "));
        kv("workload", self.workload.key());
        kv("tenants", format!("{}", p.tenants));
        kv("rps", format!("{:?}", p.rps));
        kv("trough_rps", format!("{:?}", p.trough_rps));
        kv("period_s", format!("{:?}", p.period_s));
        kv("zipf_exponent", format!("{:?}", p.zipf_exponent));
        kv("burst_factor", format!("{:?}", p.burst_factor));
        kv("burst_duty", format!("{:?}", p.burst_duty));
        kv("duration_s", format!("{:?}", p.duration_s));
        kv("concurrency", format!("{}", self.concurrency));
        kv("keepalive_s", format!("{:?}", self.keepalive_s));
        kv("host_capacity", render_bytes(self.host_capacity));
        kv("router", self.router.key().to_string());
        kv("policy", self.policy.key().to_string());
        kv("min_hosts", format!("{}", self.min_hosts));
        kv("max_hosts", format!("{}", self.max_hosts));
        kv("boot_delay_s", format!("{:?}", self.boot_delay_s));
        kv("cooldown_s", format!("{:?}", self.cooldown_s));
        kv("mtbf_s", format!("{:?}", self.mtbf_s));
        for &(kind, target) in &self.slo {
            kv(&format!("slo.{}", kind.key()), format!("{target:?}"));
        }
        kv("seed", format!("{}", self.seed));
        kv("trials", format!("{}", self.trials));
        out
    }

    /// Parses a spec file and validates it.
    ///
    /// Errors carry line numbers and, for unknown names, the full list
    /// of valid alternatives — and every bad line is reported at once
    /// (malformed lines, duplicate/unknown keys and unparsable values
    /// are all collected before giving up), so a typo'd spec is fixed
    /// in one pass, not one error per run.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut errs: Vec<String> = Vec::new();
        let pairs = scan_pairs(text, &mut errs);
        let s = build_scenario(&pairs, &mut errs);
        match s {
            Some(s) if errs.is_empty() => {
                s.validate()?;
                Ok(s)
            }
            _ => Err(errs.join("\n")),
        }
    }

    /// Applies one `key = value` pair to the scenario under
    /// construction (the shape keys were handled before `Scenario::new`).
    pub(crate) fn apply_key(s: &mut Scenario, key: &str, value: &str) -> Result<(), String> {
        match key {
            "name" | "topology" | "workload" => {}
            "backend" => {
                let mut backends = Vec::new();
                for part in value.split(',') {
                    backends.push(BackendKind::from_key(part.trim())?);
                }
                s.backends = backends;
            }
            "tenants" => s.params.tenants = parse_int(value)?,
            "rps" => s.params.rps = parse_f64(value)?,
            "trough_rps" => s.params.trough_rps = parse_f64(value)?,
            "period_s" => s.params.period_s = parse_f64(value)?,
            "zipf_exponent" => s.params.zipf_exponent = parse_f64(value)?,
            "burst_factor" => s.params.burst_factor = parse_f64(value)?,
            "burst_duty" => s.params.burst_duty = parse_f64(value)?,
            "duration_s" => s.params.duration_s = parse_f64(value)?,
            "concurrency" => s.concurrency = parse_int(value)?,
            "keepalive_s" => s.keepalive_s = parse_f64(value)?,
            "host_capacity" => s.host_capacity = parse_bytes(value)?,
            "router" => s.router = RouterKind::from_key(value)?,
            "policy" => s.policy = PolicyKind::from_key(value)?,
            "min_hosts" => s.min_hosts = parse_int(value)?,
            "max_hosts" => s.max_hosts = parse_int(value)?,
            "boot_delay_s" => s.boot_delay_s = parse_f64(value)?,
            "cooldown_s" => s.cooldown_s = parse_f64(value)?,
            "mtbf_s" => s.mtbf_s = parse_f64(value)?,
            "seed" => s.seed = parse_u64(value)?,
            "trials" => s.trials = parse_int(value)?,
            slo if slo.starts_with("slo.") => {
                let kind = FunctionKind::from_key(&slo["slo.".len()..])?;
                s.slo.push((kind, parse_f64(value)?));
            }
            unknown => {
                // Suggest across the *whole* spec vocabulary — scalar
                // keys, the sweep-only `hosts` axis, `expect.*` gates
                // and the `slo.*` overrides — so a typo'd grid spec
                // points at the key it meant.
                let slo_keys: Vec<String> = FunctionKind::ALL
                    .iter()
                    .map(|k| format!("slo.{}", k.key()))
                    .collect();
                let mut candidates: Vec<&str> = KEYS.to_vec();
                candidates.push("hosts");
                candidates.extend(super::expect::ExpectKind::ALL.iter().map(|e| e.key()));
                candidates.extend(slo_keys.iter().map(String::as_str));
                let hint = sim_core::registry::nearest(unknown, &candidates)
                    .map(|n| format!("; did you mean `{n}`?"))
                    .unwrap_or_default();
                return Err(format!(
                    "unknown key `{unknown}` (valid keys: {}, slo.<function>, \
                     expect.* gates and the `hosts` sweep axis — see `repro scenarios`){hint}",
                    KEYS.join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    fn fleet_spec() -> Scenario {
        let mut s = Scenario::new("fleet-slam", Topology::Fleet, WorkloadKind::Diurnal);
        s.backends = vec![
            BackendKind::VirtioMem,
            BackendKind::Squeezy,
            BackendKind::SqueezySoft,
        ];
        s.params.tenants = 5;
        s.params.rps = 8.0;
        s.params.trough_rps = 1.0;
        s.params.duration_s = 300.0;
        s.params.period_s = 300.0;
        s.host_capacity = 4 * GIB;
        s.router = RouterKind::PowerOfTwo;
        s.policy = PolicyKind::SlamSlo;
        s.mtbf_s = 150.0;
        s.slo = vec![(FunctionKind::Html, 900.0), (FunctionKind::Bert, 4000.0)];
        s.seed = 0xF7;
        s
    }

    #[test]
    fn render_parse_round_trips() {
        let s = fleet_spec();
        let text = s.render();
        let back = Scenario::parse(&text).expect("round-trip parses");
        assert_eq!(back, s);
    }

    #[test]
    fn parse_accepts_comments_blank_lines_and_any_order() {
        let text = "\n# a fleet\ntrials = 2\nworkload = diurnal\n\nname = x\ntopology = fleet\n";
        let s = Scenario::parse(text).expect("parses");
        assert_eq!(s.trials, 2);
        assert_eq!(s.workload, WorkloadKind::Diurnal);
    }

    #[test]
    fn parse_rejects_unknown_names_with_the_valid_list() {
        let base = "name = x\ntopology = fleet\nworkload = diurnal\n";
        let err = Scenario::parse(&format!("{base}backend = sqeezy\n")).unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("squeezy-soft"), "lists valid backends: {err}");
        let err = Scenario::parse(&format!("{base}rooter = least-loaded\n")).unwrap_err();
        assert!(err.contains("unknown key `rooter`"), "{err}");
        assert!(err.contains("host_capacity"), "lists valid keys: {err}");
        let err = Scenario::parse("name = x\ntopology = ring\nworkload = diurnal\n").unwrap_err();
        assert!(err.contains("cluster(N)"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_lines_and_duplicates() {
        let err = Scenario::parse("name x\n").unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("key = value"),
            "{err}"
        );
        let err = Scenario::parse("name = x\nname = y\ntopology = fleet\nworkload = diurnal\n")
            .unwrap_err();
        assert!(err.contains("already set on line 1"), "{err}");
        let err = Scenario::parse("topology = fleet\nworkload = diurnal\n").unwrap_err();
        assert!(err.contains("missing required key `name`"), "{err}");
    }

    #[test]
    fn parse_reports_every_bad_line_at_once() {
        let text = "name = x\ntopology = fleet\nworkload = diurnal\n\
                    backend = sqeezy\nrooter = least-loaded\ntrials = oops\n";
        let err = Scenario::parse(text).unwrap_err();
        assert!(err.contains("line 4") && err.contains("sqeezy"), "{err}");
        assert!(err.contains("line 5") && err.contains("rooter"), "{err}");
        assert!(err.contains("line 6") && err.contains("oops"), "{err}");
    }

    #[test]
    fn parse_validates_the_result() {
        let err = Scenario::parse(
            "name = x\ntopology = fleet\nworkload = diurnal\nmin_hosts = 5\nmax_hosts = 2\n",
        )
        .unwrap_err();
        assert!(
            err.contains("max_hosts (2) must be ≥ min_hosts (5)"),
            "{err}"
        );
    }

    #[test]
    fn byte_sizes_round_trip() {
        for b in [6 * GIB, 1536 * MIB, 64 * 1024, 12345] {
            assert_eq!(parse_bytes(&render_bytes(b)), Ok(b));
        }
        assert_eq!(parse_bytes("4GiB"), Ok(4 * GIB));
        assert!(parse_bytes("4gb").is_err());
    }

    #[test]
    fn seeds_parse_in_hex_and_decimal() {
        let base = "name = x\ntopology = single-vm\nworkload = memhog\n";
        let hex = Scenario::parse(&format!("{base}seed = 0xF7\n")).unwrap();
        let dec = Scenario::parse(&format!("{base}seed = 247\n")).unwrap();
        assert_eq!(hex.seed, dec.seed);
    }
}

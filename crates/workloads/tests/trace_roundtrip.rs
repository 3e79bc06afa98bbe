//! Property: the trace writers and parsers are exact inverses — a
//! rendered trace streams back precisely the arrival sequence its rows
//! define, for arbitrary row tables, seeds and trials.

use proptest::prelude::*;
use sim_core::{DetRng, SimDuration};
use workloads::source::{render_azure_minute, render_opendc, OpenDcRow};
use workloads::{Arrival, AzureMinuteSource, FunctionKind, OpenDcSource, TraceSource};

/// Drains a source to completion, asserting the time-order contract.
fn drain(src: &mut dyn TraceSource) -> Vec<Arrival> {
    let mut out: Vec<Arrival> = Vec::new();
    while let Some(a) = src.next_arrival().expect("round-tripped traces parse") {
        if let Some(last) = out.last() {
            assert!(a.t_ns >= last.t_ns, "non-decreasing times");
        }
        out.push(a);
    }
    out
}

/// The documented azure-minute expansion, computed independently of the
/// parser: jitter from `seed → 0xA21 → trial → minute → tenant`, sorted
/// by `(t_ns, tenant)` within each minute.
fn expand_azure(seed: u64, rows: &[(u64, usize, u64)], trial: u64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut minute_buf: Vec<Arrival> = Vec::new();
    let mut cur = None;
    for &(minute, tenant, count) in rows {
        if cur != Some(minute) {
            minute_buf.sort_by_key(|a: &Arrival| (a.t_ns, a.tenant));
            out.append(&mut minute_buf);
            cur = Some(minute);
        }
        let mut rng = DetRng::new(seed)
            .derive(0xA21)
            .derive(trial)
            .derive(minute)
            .derive(tenant as u64);
        for _ in 0..count {
            let off = rng.range_f64(0.0, 60.0);
            minute_buf.push(Arrival {
                t_ns: minute * 60_000_000_000 + SimDuration::from_secs_f64(off).as_nanos(),
                tenant,
            });
        }
    }
    minute_buf.sort_by_key(|a: &Arrival| (a.t_ns, a.tenant));
    out.append(&mut minute_buf);
    out
}

/// A sorted-by-`(minute, tenant)` count table over `tenants` slots.
fn azure_rows_strategy() -> impl Strategy<Value = (usize, Vec<(u64, usize, u64)>)> {
    (
        1usize..=4,
        prop::collection::vec((0u64..12, 0u64..8), 0..40),
    )
        .prop_map(|(tenants, cells)| {
            let mut rows: Vec<(u64, usize, u64)> = cells
                .into_iter()
                .enumerate()
                .map(|(i, (minute, count))| (minute, i % tenants, count))
                .collect();
            rows.sort_by_key(|&(m, t, _)| (m, t));
            rows.dedup_by_key(|&mut (m, t, _)| (m, t));
            (tenants, rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn azure_writer_parser_round_trip(
        table in azure_rows_strategy(),
        seed in 0u64..1 << 48,
        trial in 0u64..4,
    ) {
        let (tenants, rows) = table;
        let kinds: Vec<FunctionKind> = (0..tenants)
            .map(|i| FunctionKind::ALL[i % FunctionKind::ALL.len()])
            .collect();
        let text = render_azure_minute(seed, &kinds, &rows);
        let mut src = AzureMinuteSource::new(text.as_bytes(), trial).expect("parses");
        prop_assert_eq!(src.kinds(), kinds.as_slice());
        let got = drain(&mut src);
        let want = expand_azure(seed, &rows, trial);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn opendc_writer_parser_round_trip(
        cells in prop::collection::vec((0u64..5000, 0u64..5, (10u64..900, 1u64..9)), 0..40),
        tenants in 1usize..=3,
    ) {
        let kinds: Vec<FunctionKind> = (0..tenants)
            .map(|i| FunctionKind::ALL[i % FunctionKind::ALL.len()])
            .collect();
        let mut rows: Vec<OpenDcRow> = cells
            .into_iter()
            .map(|(ts, tenant, (exec_tenths, inv))| OpenDcRow {
                timestamp_ms: ts,
                tenant: tenant as usize % tenants,
                invocations: inv,
                avg_exec_ms: exec_tenths as f64 / 10.0,
                memory_mb: 64 + (ts % 512),
            })
            .collect();
        rows.sort_by_key(|r| r.timestamp_ms);
        let text = render_opendc(&kinds, &rows);
        let mut src = OpenDcSource::new(text.as_bytes()).expect("parses");
        let got = drain(&mut src);
        let want: Vec<Arrival> = rows
            .iter()
            .flat_map(|r| {
                std::iter::repeat_n(
                    Arrival {
                        t_ns: r.timestamp_ms * 1_000_000,
                        tenant: r.tenant,
                    },
                    r.invocations as usize,
                )
            })
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// A row whose count exceeds the per-row cap fails the preflight scan
/// with an error naming its line, before anything is expanded — in
/// either trace format.
#[test]
fn oversized_row_fails_validation_at_its_line() {
    let over = workloads::MAX_ROW_ARRIVALS + 1;
    let azure = render_azure_minute(3, &[FunctionKind::Html], &[(0, 0, 4), (1, 0, 2)])
        .replace("1,0,2", &format!("1,0,{over}"));
    let row = |invocations| OpenDcRow {
        timestamp_ms: 1000,
        tenant: 0,
        invocations,
        avg_exec_ms: 50.0,
        memory_mb: 64,
    };
    let opendc = render_opendc(&[FunctionKind::Html], &[row(1), row(2)])
        .replace("1000,0,2,", &format!("1000,0,{over},"));
    // The rendered layouts: magic, seed, tenants, header, row@5, row@6
    // (azure-minute); magic, tenants, header, row@4, row@5 (opendc).
    for (name, text, line) in [("azure", azure, 6), ("opendc", opendc, 5)] {
        let path =
            std::env::temp_dir().join(format!("oversized-row-{name}-{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let err = workloads::validate_trace(path.to_str().unwrap()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.line, line, "{name}: {err}");
        assert!(err.msg.contains("exceeds the cap"), "{name}: {err}");
    }
}

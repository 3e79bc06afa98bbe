//! Streaming trace ingestion: the [`TraceSource`] subsystem.
//!
//! Every workload so far is a synthetic generator materialized fully in
//! memory before the run, so replay scale is capped by RAM rather than
//! by the event engine. A [`TraceSource`] instead yields [`Arrival`]s
//! lazily in non-decreasing time order, so simulator memory stays
//! O(pending) instead of O(total invocations) — the shape dslab's
//! OpenDC trace driver and the faas-sim Azure arrival-profile parser
//! use for file-driven replay.
//!
//! Three source families live behind the trait:
//!
//! * [`AzureMinuteSource`] — a streaming CSV parser for
//!   Azure-Functions-2021-style per-minute invocation-count rows,
//!   expanded to arrivals on the fly with seeded within-minute jitter
//!   (memory: one minute of arrivals).
//! * [`OpenDcSource`] — OpenDC-style rows carrying exact timestamps
//!   (memory: one row).
//! * [`MaterializedSource`] — an adapter wrapping the existing
//!   materialized generators ([`crate::WorkloadKind::generate`]), so all
//!   workloads flow through the one interface.
//!
//! The container that grows this repo is offline, so committed sample
//! traces under `examples/traces/` are *rendered* by the deterministic
//! writers here ([`render_azure_minute`], [`render_opendc`], driven by
//! `repro gen-trace`) and byte-pinned by test.
//!
//! Determinism: a trace file fully determines its arrival stream given
//! `(file seed, trial)` — the within-minute jitter of every Azure row
//! comes from a pure [`DetRng::derive`] chain over
//! `(seed, trial, minute, tenant)`, so replays are byte-identical for
//! any job count and trials draw distinct jitter. OpenDC rows carry
//! exact timestamps and are trial-invariant.

use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};

use sim_core::{DetRng, SimDuration};

use crate::functions::FunctionKind;
use crate::TenantLoad;

/// Magic prefix of the first line of every trace file; the rest of the
/// line names the format (`TraceFormat::key`).
pub const TRACE_MAGIC: &str = "# squeezy-trace v1";

/// Derivation tag of the per-row within-minute jitter streams. The
/// chain hangs off the *file's own* seed (`seed → 0xA21 → trial →
/// minute → tenant`), independent of every scenario stream tag.
const AZURE_JITTER_STREAM: u64 = 0xA21;

/// Nanoseconds per trace minute.
const MINUTE_NS: u64 = 60_000_000_000;

/// The most arrivals one trace row may carry, in either format: an
/// azure-minute row's count (one tenant's invocations in one minute) or
/// an opendc row's `invocations` (one tenant's invocations at one
/// timestamp). A larger count is rejected with its line number rather
/// than attempted: a minute's rows are expanded in memory before
/// replay, and validating a trace walks every arrival. The committed
/// 3-day trace's largest row is 432.
pub const MAX_ROW_ARRIVALS: u64 = 1_000_000;

/// One invocation pulled lazily from a trace source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Arrival time in nanoseconds since the trace origin.
    pub t_ns: u64,
    /// Tenant (deployment-slot) index, `< kinds().len()`; its function
    /// is `kinds()[tenant]`.
    pub tenant: usize,
}

/// A parse or validation error, tied to the offending line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceError {
    /// 1-based physical line number; 0 when not tied to a line (I/O).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl TraceError {
    fn at(line: usize, msg: impl Into<String>) -> TraceError {
        TraceError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for TraceError {}

/// A lazy, time-ordered arrival stream.
///
/// Implementations yield arrivals with non-decreasing `t_ns`; the
/// simulators pull them one at a time through the event loop, so the
/// whole trace is never resident.
pub trait TraceSource {
    /// The deployment slots (tenant kinds) this trace drives, in slot
    /// order. `Arrival::tenant` indexes into this list.
    fn kinds(&self) -> &[FunctionKind];

    /// Pulls the next arrival; `Ok(None)` at end of trace.
    fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError>;
}

/// The on-disk trace formats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceFormat {
    /// Per-minute invocation counts, expanded with seeded jitter.
    AzureMinute,
    /// Exact-timestamp rows with duration/memory hints.
    OpenDc,
}

impl TraceFormat {
    /// The format name carried on the magic line.
    pub(crate) fn key(self) -> &'static str {
        match self {
            TraceFormat::AzureMinute => "azure-minute",
            TraceFormat::OpenDc => "opendc",
        }
    }
}

/// The parsed directive header of a trace file.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// Which format the body rows use.
    pub format: TraceFormat,
    /// The file's jitter seed (azure-minute; 0 for opendc).
    pub seed: u64,
    /// Tenant slots in order, from the `# tenants = ...` directive.
    pub kinds: Vec<FunctionKind>,
}

/// Summary of a full validation scan ([`validate_trace`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStats {
    /// Total arrivals the trace expands to (at trial 0).
    pub arrivals: u64,
    /// Time of the last arrival, ns since the trace origin.
    pub end_ns: u64,
}

/// A buffered line reader that tracks 1-based physical line numbers.
struct LineReader<R: BufRead> {
    r: R,
    line: usize,
    buf: String,
}

impl<R: BufRead> LineReader<R> {
    fn new(r: R) -> Self {
        LineReader {
            r,
            line: 0,
            buf: String::new(),
        }
    }

    /// Reads the next line (without terminator); `None` at EOF.
    fn next_line(&mut self) -> Result<Option<&str>, TraceError> {
        self.buf.clear();
        let n = self
            .r
            .read_line(&mut self.buf)
            .map_err(|e| TraceError::at(self.line + 1, format!("read failed: {e}")))?;
        if n == 0 {
            return Ok(None);
        }
        self.line += 1;
        while self.buf.ends_with('\n') || self.buf.ends_with('\r') {
            self.buf.pop();
        }
        Ok(Some(&self.buf))
    }

    /// Reads the next data line, skipping blanks and `#` comments.
    fn next_data_line(&mut self) -> Result<Option<(usize, String)>, TraceError> {
        loop {
            match self.next_line()? {
                None => return Ok(None),
                Some(s) => {
                    let t = s.trim();
                    if t.is_empty() || t.starts_with('#') {
                        continue;
                    }
                    let t = t.to_string();
                    return Ok(Some((self.line, t)));
                }
            }
        }
    }
}

/// Parses the magic line + `#` directives up to and including the
/// column-header row, leaving the reader at the first data row.
fn parse_header<R: BufRead>(r: &mut LineReader<R>) -> Result<TraceHeader, TraceError> {
    let first = r
        .next_line()?
        .ok_or_else(|| TraceError::at(1, "empty file (expected a `# squeezy-trace` magic line)"))?;
    let rest = first.strip_prefix(TRACE_MAGIC).ok_or_else(|| {
        TraceError::at(
            1,
            format!("not a trace file: first line must start with {TRACE_MAGIC:?}"),
        )
    })?;
    let format = match rest.trim() {
        "azure-minute" => TraceFormat::AzureMinute,
        "opendc" => TraceFormat::OpenDc,
        other => {
            return Err(TraceError::at(
                1,
                format!("unknown trace format {other:?} (valid: azure-minute, opendc)"),
            ))
        }
    };
    let mut seed: Option<u64> = None;
    let mut kinds: Option<Vec<FunctionKind>> = None;
    loop {
        let line = r.line;
        let s = match r.next_line()? {
            None => {
                return Err(TraceError::at(
                    line,
                    "truncated header: no column-header row",
                ))
            }
            Some(s) => s.trim().to_string(),
        };
        if s.is_empty() {
            continue;
        }
        if let Some(directive) = s.strip_prefix('#') {
            let directive = directive.trim();
            if let Some(v) = directive.strip_prefix("seed =") {
                seed = Some(parse_u64(v.trim(), r.line)?);
            } else if let Some(v) = directive.strip_prefix("tenants =") {
                let mut ks = Vec::new();
                for part in v.split(',') {
                    let key = part.trim();
                    ks.push(FunctionKind::from_key(key).map_err(|e| TraceError::at(r.line, e))?);
                }
                if ks.is_empty() {
                    return Err(TraceError::at(r.line, "tenants directive lists no kinds"));
                }
                kinds = Some(ks);
            }
            continue;
        }
        // First non-comment line: the column header.
        let want = match format {
            TraceFormat::AzureMinute => "minute,tenant,count",
            TraceFormat::OpenDc => "timestamp_ms,tenant,invocations,avg_exec_ms,memory_mb",
        };
        if s != want {
            return Err(TraceError::at(
                r.line,
                format!("bad column header {s:?} (expected {want:?})"),
            ));
        }
        break;
    }
    let kinds = kinds
        .ok_or_else(|| TraceError::at(r.line, "missing `# tenants = <kind>, ...` directive"))?;
    let seed = match format {
        TraceFormat::AzureMinute => seed.ok_or_else(|| {
            TraceError::at(r.line, "missing `# seed = <u64>` directive (azure-minute)")
        })?,
        TraceFormat::OpenDc => 0,
    };
    Ok(TraceHeader {
        format,
        seed,
        kinds,
    })
}

fn parse_u64(s: &str, line: usize) -> Result<u64, TraceError> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| TraceError::at(line, format!("bad integer {s:?}")))
}

fn parse_usize(s: &str, line: usize) -> Result<usize, TraceError> {
    s.parse()
        .map_err(|_| TraceError::at(line, format!("bad index {s:?}")))
}

fn parse_f64(s: &str, line: usize) -> Result<f64, TraceError> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(TraceError::at(line, format!("bad number {s:?}"))),
    }
}

/// Streams Azure-Functions-2021-style per-minute invocation counts.
///
/// Body rows are `minute,tenant,count`, sorted by minute (non-
/// decreasing) and by tenant (strictly increasing within a minute).
/// Each row expands to `count` arrivals at seeded uniform offsets
/// within its minute; only one minute of expanded arrivals is ever
/// buffered.
pub struct AzureMinuteSource<R: BufRead> {
    kinds: Vec<FunctionKind>,
    seed: u64,
    trial: u64,
    reader: LineReader<R>,
    /// A row read past the current minute, waiting for its turn.
    pending_row: Option<(u64, usize, u64)>,
    last_minute: Option<u64>,
    last_tenant: usize,
    /// The current minute's arrivals, sorted by `(t_ns, tenant)`.
    buf: Vec<Arrival>,
    pos: usize,
    done: bool,
}

impl<R: BufRead> AzureMinuteSource<R> {
    /// Parses the header and prepares to stream rows.
    pub fn new(reader: R, trial: u64) -> Result<Self, TraceError> {
        let mut reader = LineReader::new(reader);
        let header = parse_header(&mut reader)?;
        if header.format != TraceFormat::AzureMinute {
            return Err(TraceError::at(
                1,
                format!(
                    "expected an azure-minute trace, found {}",
                    header.format.key()
                ),
            ));
        }
        Ok(Self::from_parts(header, reader, trial))
    }

    fn from_parts(header: TraceHeader, reader: LineReader<R>, trial: u64) -> Self {
        AzureMinuteSource {
            kinds: header.kinds,
            seed: header.seed,
            trial,
            reader,
            pending_row: None,
            last_minute: None,
            last_tenant: 0,
            buf: Vec::new(),
            pos: 0,
            done: false,
        }
    }

    fn parse_row(&mut self) -> Result<Option<(u64, usize, u64)>, TraceError> {
        let Some((line, s)) = self.reader.next_data_line()? else {
            return Ok(None);
        };
        let mut it = s.split(',');
        let (Some(m), Some(t), Some(c), None) = (it.next(), it.next(), it.next(), it.next()) else {
            return Err(TraceError::at(
                line,
                format!("malformed row {s:?} (expected `minute,tenant,count`)"),
            ));
        };
        let minute = parse_u64(m.trim(), line)?;
        let tenant = parse_usize(t.trim(), line)?;
        let count = parse_u64(c.trim(), line)?;
        if count > MAX_ROW_ARRIVALS {
            return Err(TraceError::at(
                line,
                format!(
                    "row count {count} exceeds the cap of {MAX_ROW_ARRIVALS} arrivals \
                     per minute per tenant"
                ),
            ));
        }
        if tenant >= self.kinds.len() {
            return Err(TraceError::at(
                line,
                format!(
                    "tenant index {tenant} out of range (trace declares {} tenants)",
                    self.kinds.len()
                ),
            ));
        }
        match self.last_minute {
            Some(last) if minute < last => {
                return Err(TraceError::at(
                    line,
                    format!("out-of-order minute {minute} after {last}"),
                ));
            }
            Some(last) if minute == last && tenant <= self.last_tenant => {
                return Err(TraceError::at(
                    line,
                    format!(
                        "tenant {tenant} repeats or regresses within minute {minute} \
                         (rows must be sorted by minute, then tenant)"
                    ),
                ));
            }
            _ => {}
        }
        self.last_minute = Some(minute);
        self.last_tenant = tenant;
        Ok(Some((minute, tenant, count)))
    }

    /// Expands the next minute's rows into `buf`; false at EOF.
    fn refill(&mut self) -> Result<bool, TraceError> {
        self.buf.clear();
        self.pos = 0;
        let first = match self.pending_row.take() {
            Some(row) => row,
            None => match self.parse_row()? {
                Some(row) => row,
                None => return Ok(false),
            },
        };
        let minute = first.0;
        let mut row = Some(first);
        while let Some((m, tenant, count)) = row {
            if m != minute {
                self.pending_row = Some((m, tenant, count));
                break;
            }
            let mut rng = DetRng::new(self.seed)
                .derive(AZURE_JITTER_STREAM)
                .derive(self.trial)
                .derive(minute)
                .derive(tenant as u64);
            for _ in 0..count {
                let offset = rng.range_f64(0.0, 60.0);
                self.buf.push(Arrival {
                    t_ns: minute * MINUTE_NS + SimDuration::from_secs_f64(offset).as_nanos(),
                    tenant,
                });
            }
            row = self.parse_row()?;
        }
        self.buf.sort_by_key(|a| (a.t_ns, a.tenant));
        Ok(true)
    }
}

impl<R: BufRead> TraceSource for AzureMinuteSource<R> {
    fn kinds(&self) -> &[FunctionKind] {
        &self.kinds
    }

    fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
        loop {
            if self.pos < self.buf.len() {
                self.pos += 1;
                return Ok(Some(self.buf[self.pos - 1]));
            }
            if self.done {
                return Ok(None);
            }
            if !self.refill()? {
                self.done = true;
            }
        }
    }
}

/// Streams OpenDC-style exact-timestamp rows.
///
/// Body rows are `timestamp_ms,tenant,invocations,avg_exec_ms,memory_mb`
/// with non-decreasing timestamps; each row yields `invocations`
/// arrivals at exactly its timestamp. The duration and memory columns
/// are parsed and checked, but the function model decides both.
/// Trial-invariant (no jitter).
pub struct OpenDcSource<R: BufRead> {
    kinds: Vec<FunctionKind>,
    reader: LineReader<R>,
    /// Remaining repeats of the current row.
    cur: Option<(Arrival, u64)>,
    last_ts: Option<u64>,
    done: bool,
}

impl<R: BufRead> OpenDcSource<R> {
    /// Parses the header and prepares to stream rows.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut reader = LineReader::new(reader);
        let header = parse_header(&mut reader)?;
        if header.format != TraceFormat::OpenDc {
            return Err(TraceError::at(
                1,
                format!("expected an opendc trace, found {}", header.format.key()),
            ));
        }
        Ok(Self::from_parts(header, reader))
    }

    fn from_parts(header: TraceHeader, reader: LineReader<R>) -> Self {
        OpenDcSource {
            kinds: header.kinds,
            reader,
            cur: None,
            last_ts: None,
            done: false,
        }
    }

    fn parse_row(&mut self) -> Result<Option<(Arrival, u64)>, TraceError> {
        let Some((line, s)) = self.reader.next_data_line()? else {
            return Ok(None);
        };
        let fields: Vec<&str> = s.split(',').collect();
        let [ts, tenant, invocations, exec, mem] = fields.as_slice() else {
            return Err(TraceError::at(
                line,
                format!(
                    "malformed row {s:?} (expected \
                     `timestamp_ms,tenant,invocations,avg_exec_ms,memory_mb`)"
                ),
            ));
        };
        let ts_ms = parse_u64(ts.trim(), line)?;
        let tenant = parse_usize(tenant.trim(), line)?;
        let invocations = parse_u64(invocations.trim(), line)?;
        let avg_exec_ms = parse_f64(exec.trim(), line)?;
        parse_u64(mem.trim(), line)?;
        if invocations > MAX_ROW_ARRIVALS {
            return Err(TraceError::at(
                line,
                format!(
                    "row invocation count {invocations} exceeds the cap of \
                     {MAX_ROW_ARRIVALS} arrivals per row"
                ),
            ));
        }
        if tenant >= self.kinds.len() {
            return Err(TraceError::at(
                line,
                format!(
                    "tenant index {tenant} out of range (trace declares {} tenants)",
                    self.kinds.len()
                ),
            ));
        }
        if avg_exec_ms < 0.0 {
            return Err(TraceError::at(
                line,
                format!("negative avg_exec_ms {avg_exec_ms}"),
            ));
        }
        if let Some(last) = self.last_ts {
            if ts_ms < last {
                return Err(TraceError::at(
                    line,
                    format!("out-of-order timestamp {ts_ms} ms after {last} ms"),
                ));
            }
        }
        self.last_ts = Some(ts_ms);
        let arrival = Arrival {
            t_ns: ts_ms * 1_000_000,
            tenant,
        };
        Ok(Some((arrival, invocations)))
    }
}

impl<R: BufRead> TraceSource for OpenDcSource<R> {
    fn kinds(&self) -> &[FunctionKind] {
        &self.kinds
    }

    fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
        loop {
            if let Some((arrival, remaining)) = self.cur {
                if remaining > 0 {
                    self.cur = Some((arrival, remaining - 1));
                    return Ok(Some(arrival));
                }
                self.cur = None;
            }
            if self.done {
                return Ok(None);
            }
            match self.parse_row()? {
                Some(row) => self.cur = Some(row),
                None => self.done = true,
            }
        }
    }
}

/// Wraps materialized per-tenant arrival lists as a [`TraceSource`],
/// merging them into one `(t_ns, tenant)`-ordered stream, FIFO within
/// a tenant. This is how the simulators replay generated workloads:
/// the order matches the slot-major pre-push order they were pinned
/// on, so replays stay byte-identical.
pub struct MaterializedSource {
    kinds: Vec<FunctionKind>,
    arrivals: Vec<Vec<f64>>,
    cursors: Vec<usize>,
}

impl MaterializedSource {
    /// Wraps already-generated tenant loads.
    pub fn new(loads: Vec<TenantLoad>) -> Self {
        MaterializedSource {
            kinds: loads.iter().map(|t| t.kind).collect(),
            cursors: vec![0; loads.len()],
            arrivals: loads.into_iter().map(|t| t.arrivals).collect(),
        }
    }
}

impl TraceSource for MaterializedSource {
    fn kinds(&self) -> &[FunctionKind] {
        &self.kinds
    }

    fn next_arrival(&mut self) -> Result<Option<Arrival>, TraceError> {
        let mut best: Option<(u64, usize)> = None;
        for (tenant, (arrivals, &cursor)) in self.arrivals.iter().zip(&self.cursors).enumerate() {
            if let Some(&a) = arrivals.get(cursor) {
                let t_ns = SimDuration::from_secs_f64(a).as_nanos();
                if best.is_none_or(|(bt, bten)| (t_ns, tenant) < (bt, bten)) {
                    best = Some((t_ns, tenant));
                }
            }
        }
        Ok(best.map(|(t_ns, tenant)| {
            self.cursors[tenant] += 1;
            Arrival { t_ns, tenant }
        }))
    }
}

/// Reads just the header of a trace file (cheap: no body scan). Used
/// by the scenario layer to learn the tenant kinds a trace drives.
pub fn read_trace_header(path: &str) -> Result<TraceHeader, TraceError> {
    let f = File::open(path).map_err(|e| TraceError::at(0, format!("{path}: {e}")))?;
    parse_header(&mut LineReader::new(BufReader::new(f)))
}

/// Opens a trace file as a boxed source, dispatching on the magic line.
pub fn open_trace(path: &str, trial: u64) -> Result<Box<dyn TraceSource>, TraceError> {
    let f = File::open(path).map_err(|e| TraceError::at(0, format!("{path}: {e}")))?;
    let mut reader = LineReader::new(BufReader::new(f));
    let header = parse_header(&mut reader)?;
    Ok(match header.format {
        TraceFormat::AzureMinute => Box::new(AzureMinuteSource::from_parts(header, reader, trial)),
        TraceFormat::OpenDc => Box::new(OpenDcSource::from_parts(header, reader)),
    })
}

/// Fully scans a trace (at trial 0), checking every row parses and the
/// stream is time-ordered; returns arrival count and end time. The
/// scenario layer runs this preflight before replaying, so a malformed
/// file fails with its line number instead of mid-simulation.
pub fn validate_trace(path: &str) -> Result<TraceStats, TraceError> {
    let mut src = open_trace(path, 0)?;
    let mut stats = TraceStats {
        arrivals: 0,
        end_ns: 0,
    };
    let mut last = 0u64;
    while let Some(a) = src.next_arrival()? {
        debug_assert!(a.t_ns >= last, "sources yield non-decreasing times");
        last = a.t_ns;
        stats.arrivals += 1;
        stats.end_ns = a.t_ns;
    }
    Ok(stats)
}

fn render_header(out: &mut String, format: TraceFormat, seed: Option<u64>, kinds: &[FunctionKind]) {
    out.push_str(&format!("{TRACE_MAGIC} {}\n", format.key()));
    if let Some(seed) = seed {
        out.push_str(&format!("# seed = {seed:#x}\n"));
    }
    let keys: Vec<&str> = kinds.iter().map(|k| k.key()).collect();
    out.push_str(&format!("# tenants = {}\n", keys.join(", ")));
}

/// Renders an azure-minute trace deterministically: the writer half of
/// the round-trip the parser tests pin.
///
/// # Panics
///
/// Panics if `kinds` is empty, a row's tenant is out of range, or the
/// rows are not sorted by `(minute, tenant)` with unique tenants per
/// minute — writer misuse, not data errors.
pub fn render_azure_minute(
    seed: u64,
    kinds: &[FunctionKind],
    rows: &[(u64, usize, u64)],
) -> String {
    assert!(!kinds.is_empty(), "a trace needs tenants");
    let mut out = String::new();
    render_header(&mut out, TraceFormat::AzureMinute, Some(seed), kinds);
    out.push_str("minute,tenant,count\n");
    let mut last: Option<(u64, usize)> = None;
    for &(minute, tenant, count) in rows {
        assert!(tenant < kinds.len(), "tenant {tenant} out of range");
        assert!(
            last.is_none_or(|l| l < (minute, tenant)),
            "rows must be sorted by (minute, tenant)"
        );
        last = Some((minute, tenant));
        if count > 0 {
            out.push_str(&format!("{minute},{tenant},{count}\n"));
        }
    }
    out
}

/// One OpenDC-style writer row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenDcRow {
    pub timestamp_ms: u64,
    pub tenant: usize,
    pub invocations: u64,
    pub avg_exec_ms: f64,
    pub memory_mb: u64,
}

/// Renders an opendc trace deterministically.
///
/// # Panics
///
/// Panics if `kinds` is empty, a tenant is out of range, or timestamps
/// decrease.
pub fn render_opendc(kinds: &[FunctionKind], rows: &[OpenDcRow]) -> String {
    assert!(!kinds.is_empty(), "a trace needs tenants");
    let mut out = String::new();
    render_header(&mut out, TraceFormat::OpenDc, None, kinds);
    out.push_str("timestamp_ms,tenant,invocations,avg_exec_ms,memory_mb\n");
    let mut last = 0u64;
    for row in rows {
        assert!(
            row.tenant < kinds.len(),
            "tenant {} out of range",
            row.tenant
        );
        assert!(
            row.timestamp_ms >= last,
            "timestamps must be non-decreasing"
        );
        last = row.timestamp_ms;
        if row.invocations > 0 {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                row.timestamp_ms, row.tenant, row.invocations, row.avg_exec_ms, row.memory_mb
            ));
        }
    }
    out
}

/// The deterministic per-minute count table of the committed sample
/// traces: a daily sinusoid (period 1440 minutes) scaled by a harmonic
/// per-tenant popularity share. Closed-form — no RNG — so `repro
/// gen-trace` output is byte-pinned forever.
pub(crate) fn sample_azure_rows(
    minutes: u64,
    tenants: usize,
    peak_per_minute: f64,
) -> Vec<(u64, usize, u64)> {
    assert!(tenants > 0 && peak_per_minute > 0.0);
    let share_total: f64 = (1..=tenants).map(|k| 1.0 / k as f64).sum();
    let mut rows = Vec::with_capacity((minutes as usize) * tenants);
    for minute in 0..minutes {
        let phase = 2.0 * std::f64::consts::PI * minute as f64 / 1440.0;
        let envelope = peak_per_minute * (0.55 - 0.45 * phase.cos());
        for tenant in 0..tenants {
            let share = (1.0 / (tenant + 1) as f64) / share_total;
            rows.push((minute, tenant, (envelope * share).round() as u64));
        }
    }
    rows
}

/// Renders the committed 3-day, ≥2M-invocation azure-minute sample
/// (`examples/traces/azure_3day.csv`, written by `repro gen-trace`).
pub fn sample_azure_3day() -> String {
    let kinds = [
        FunctionKind::Html,
        FunctionKind::Cnn,
        FunctionKind::Bfs,
        FunctionKind::Bert,
    ];
    render_azure_minute(
        0xA2_2026,
        &kinds,
        &sample_azure_rows(3 * 1440, kinds.len(), 900.0),
    )
}

/// Renders the committed small opendc sample
/// (`examples/traces/opendc_sample.csv`, written by `repro gen-trace`).
pub fn sample_opendc() -> String {
    let kinds = [FunctionKind::Html, FunctionKind::Cnn];
    let mut rows = Vec::new();
    for step in 0u64..120 {
        rows.push(OpenDcRow {
            timestamp_ms: step * 1000,
            tenant: (step % 2) as usize,
            invocations: 1 + step % 3,
            avg_exec_ms: 80.0 + (step % 7) as f64 * 15.0,
            memory_mb: 128 + (step % 4) * 64,
        });
    }
    render_opendc(&kinds, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect_err<T>(r: Result<T, TraceError>) -> TraceError {
        match r {
            Ok(_) => panic!("unexpectedly parsed"),
            Err(e) => e,
        }
    }

    fn drain(src: &mut dyn TraceSource) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(a) = src.next_arrival().expect("valid trace") {
            out.push(a);
        }
        out
    }

    #[test]
    fn azure_round_trip_streams_the_expected_expansion() {
        let kinds = [FunctionKind::Html, FunctionKind::Cnn];
        let rows = [(0, 0, 3), (0, 1, 2), (2, 0, 1)];
        let text = render_azure_minute(7, &kinds, &rows);
        let mut src = AzureMinuteSource::new(text.as_bytes(), 0).expect("parses");
        assert_eq!(src.kinds(), &kinds);
        let got = drain(&mut src);
        assert_eq!(got.len(), 6);
        assert!(got.windows(2).all(|w| w[0].t_ns <= w[1].t_ns), "ordered");
        // Expansion matches the documented jitter chain exactly.
        let mut expect = Vec::new();
        for &(minute, tenant, count) in &rows {
            let mut rng = DetRng::new(7)
                .derive(AZURE_JITTER_STREAM)
                .derive(0)
                .derive(minute)
                .derive(tenant as u64);
            for _ in 0..count {
                let off = rng.range_f64(0.0, 60.0);
                expect.push(Arrival {
                    t_ns: minute * MINUTE_NS + SimDuration::from_secs_f64(off).as_nanos(),
                    tenant,
                });
            }
        }
        expect.sort_by_key(|a| (a.t_ns, a.tenant));
        assert_eq!(got, expect);
    }

    #[test]
    fn azure_trials_draw_distinct_jitter() {
        let text = render_azure_minute(7, &[FunctionKind::Html], &[(0, 0, 8)]);
        let a = drain(&mut AzureMinuteSource::new(text.as_bytes(), 0).unwrap());
        let b = drain(&mut AzureMinuteSource::new(text.as_bytes(), 0).unwrap());
        let c = drain(&mut AzureMinuteSource::new(text.as_bytes(), 1).unwrap());
        assert_eq!(a, b, "same trial, same stream");
        assert_ne!(a, c, "trials jitter independently");
        assert_eq!(a.len(), c.len(), "counts are trial-invariant");
    }

    #[test]
    fn azure_errors_carry_line_numbers() {
        let text = render_azure_minute(1, &[FunctionKind::Html], &[(0, 0, 1), (1, 0, 2)]);
        // The rendered layout: magic, seed, tenants, header, row@5, row@6.
        let broken = text.replace("1,0,2", "1,0,two");
        let err = drain_err(&broken);
        assert_eq!(err.line, 6, "{err}");
        assert!(err.msg.contains("bad integer"), "{err}");

        let out_of_order = text.replace("1,0,2", "0,0,2");
        let err = drain_err(&out_of_order);
        assert_eq!(err.line, 6, "{err}");
        assert!(err.msg.contains("repeats or regresses"), "{err}");

        let backwards = render_azure_minute(1, &[FunctionKind::Html], &[(0, 0, 1), (5, 0, 2)])
            .replace("5,0,2", "5,0,2\n3,0,1");
        let err = drain_err(&backwards);
        assert_eq!(err.line, 7, "{err}");
        assert!(err.msg.contains("out-of-order minute 3 after 5"), "{err}");

        let bad_tenant = text.replace("1,0,2", "1,9,2");
        let err = drain_err(&bad_tenant);
        assert_eq!(err.line, 6, "{err}");
        assert!(err.msg.contains("out of range"), "{err}");

        let malformed = text.replace("1,0,2", "1,0");
        let err = drain_err(&malformed);
        assert_eq!(err.line, 6, "{err}");
        assert!(err.msg.contains("malformed row"), "{err}");

        let at_cap = text.replace("1,0,2", &format!("1,0,{MAX_ROW_ARRIVALS}"));
        let mut src = AzureMinuteSource::new(at_cap.as_bytes(), 0).unwrap();
        assert_eq!(drain(&mut src).len() as u64, 1 + MAX_ROW_ARRIVALS);
        let huge = text.replace("1,0,2", "1,0,99999999999");
        let err = drain_err(&huge);
        assert_eq!(err.line, 6, "{err}");
        assert!(err.msg.contains("exceeds the cap"), "{err}");
    }

    fn drain_err(text: &str) -> TraceError {
        let mut src = AzureMinuteSource::new(text.as_bytes(), 0).expect("header ok");
        loop {
            match src.next_arrival() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("trace unexpectedly valid"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn header_errors_are_precise() {
        let no_magic = "minute,tenant,count\n";
        let err = expect_err(AzureMinuteSource::new(no_magic.as_bytes(), 0));
        assert_eq!(err.line, 1);
        assert!(err.msg.contains("not a trace file"), "{err}");

        let bad_format = "# squeezy-trace v1 csv\n";
        let err = expect_err(AzureMinuteSource::new(bad_format.as_bytes(), 0));
        assert!(err.msg.contains("unknown trace format"), "{err}");

        let no_seed = "# squeezy-trace v1 azure-minute\n# tenants = html\nminute,tenant,count\n";
        let err = expect_err(AzureMinuteSource::new(no_seed.as_bytes(), 0));
        assert!(err.msg.contains("missing `# seed"), "{err}");

        let bad_kind =
            "# squeezy-trace v1 azure-minute\n# seed = 1\n# tenants = html, nope\nminute,tenant,count\n";
        let err = expect_err(AzureMinuteSource::new(bad_kind.as_bytes(), 0));
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("nope"), "{err}");

        let bad_columns = "# squeezy-trace v1 azure-minute\n# seed = 1\n# tenants = html\nm,t,c\n";
        let err = expect_err(AzureMinuteSource::new(bad_columns.as_bytes(), 0));
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("bad column header"), "{err}");
    }

    #[test]
    fn opendc_round_trip_with_hints() {
        let kinds = [FunctionKind::Html, FunctionKind::Cnn];
        let rows = [
            OpenDcRow {
                timestamp_ms: 0,
                tenant: 0,
                invocations: 2,
                avg_exec_ms: 125.5,
                memory_mb: 256,
            },
            OpenDcRow {
                timestamp_ms: 1500,
                tenant: 1,
                invocations: 1,
                avg_exec_ms: 80.0,
                memory_mb: 128,
            },
        ];
        let text = render_opendc(&kinds, &rows);
        let mut src = OpenDcSource::new(text.as_bytes()).expect("parses");
        let got = drain(&mut src);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].t_ns, 0);
        assert_eq!(got[1].t_ns, 0, "both invocations at the row timestamp");
        assert_eq!(got[2].t_ns, 1_500_000_000);
        assert_eq!(got[2].tenant, 1);
    }

    #[test]
    fn opendc_rejects_backwards_timestamps_with_line() {
        let text = "# squeezy-trace v1 opendc\n# tenants = html\n\
                    timestamp_ms,tenant,invocations,avg_exec_ms,memory_mb\n\
                    1000,0,1,50.0,64\n500,0,1,50.0,64\n";
        let mut src = OpenDcSource::new(text.as_bytes()).expect("header ok");
        src.next_arrival().expect("first row fine");
        let err = src.next_arrival().unwrap_err();
        assert_eq!(err.line, 5, "{err}");
        assert!(err.msg.contains("out-of-order timestamp"), "{err}");
    }

    #[test]
    fn opendc_errors_carry_line_numbers() {
        let text = "# squeezy-trace v1 opendc\n# tenants = html\n\
                    timestamp_ms,tenant,invocations,avg_exec_ms,memory_mb\n\
                    0,0,1,50.0,64\n1000,0,2,50.0,64\n";
        let count = |text: &str| {
            let mut src = OpenDcSource::new(text.as_bytes()).expect("header ok");
            let mut n = 0u64;
            loop {
                match src.next_arrival() {
                    Ok(Some(_)) => n += 1,
                    Ok(None) => return Ok(n),
                    Err(e) => return Err(e),
                }
            }
        };
        assert_eq!(count(text).unwrap(), 3);
        let row = "1000,0,2,50.0,64";
        let at_cap = text.replace(row, &format!("1000,0,{MAX_ROW_ARRIVALS},50.0,64"));
        assert_eq!(count(&at_cap).unwrap(), 1 + MAX_ROW_ARRIVALS);
        // The layout: magic, tenants, header, row@4, row@5.
        let over = format!("1000,0,{},50.0,64", MAX_ROW_ARRIVALS + 1);
        for (bad, msg) in [
            (over.as_str(), "exceeds the cap"),
            ("1000,0,99999999999,50.0,64", "exceeds the cap"),
            ("1000,0,two,50.0,64", "bad integer"),
            ("1000,7,2,50.0,64", "out of range"),
            ("1000,0,2,-1.0,64", "negative avg_exec_ms"),
        ] {
            let err = count(&text.replace(row, bad)).unwrap_err();
            assert_eq!(err.line, 5, "{bad}: {err}");
            assert!(err.msg.contains(msg), "{bad}: {err}");
        }
    }

    #[test]
    fn materialized_source_merges_in_time_tenant_order() {
        let loads = vec![
            TenantLoad {
                kind: FunctionKind::Html,
                arrivals: vec![1.0, 3.0],
            },
            TenantLoad {
                kind: FunctionKind::Cnn,
                arrivals: vec![1.0, 2.0],
            },
        ];
        let mut src = MaterializedSource::new(loads);
        let got = drain(&mut src);
        let seq: Vec<(u64, usize)> = got.iter().map(|a| (a.t_ns, a.tenant)).collect();
        assert_eq!(
            seq,
            vec![
                (1_000_000_000, 0),
                (1_000_000_000, 1),
                (2_000_000_000, 1),
                (3_000_000_000, 0)
            ],
            "ties break by tenant"
        );

        // Same-tenant ties stay FIFO, and an empty tenant is skipped.
        let loads = [vec![1.0, 2.0, 2.0], vec![0.5, 2.0], vec![]]
            .into_iter()
            .map(|arrivals| TenantLoad {
                kind: FunctionKind::Html,
                arrivals,
            })
            .collect();
        let mut src = MaterializedSource::new(loads);
        let seq: Vec<(u64, usize)> = drain(&mut src).iter().map(|a| (a.t_ns, a.tenant)).collect();
        assert_eq!(
            seq,
            vec![
                (500_000_000, 1),
                (1_000_000_000, 0),
                (2_000_000_000, 0),
                (2_000_000_000, 0),
                (2_000_000_000, 1),
            ],
            "ties break by tenant, then FIFO within a tenant"
        );
    }

    #[test]
    fn open_trace_dispatches_and_validates() {
        let dir = std::env::temp_dir();
        let az = dir.join("squeezy_source_test_az.csv");
        let od = dir.join("squeezy_source_test_od.csv");
        std::fs::write(
            &az,
            render_azure_minute(3, &[FunctionKind::Html], &[(0, 0, 4)]),
        )
        .expect("write");
        std::fs::write(&od, sample_opendc()).expect("write");
        let az = az.to_str().unwrap();
        let od = od.to_str().unwrap();
        assert_eq!(
            read_trace_header(az).unwrap().format,
            TraceFormat::AzureMinute
        );
        assert_eq!(read_trace_header(od).unwrap().format, TraceFormat::OpenDc);
        assert_eq!(validate_trace(az).unwrap().arrivals, 4);
        let od_stats = validate_trace(od).unwrap();
        assert!(od_stats.arrivals > 120, "rows expand");
        assert_eq!(od_stats.end_ns, 119 * 1_000_000_000);
        let mut src = open_trace(az, 0).expect("opens");
        assert_eq!(drain(src.as_mut()).len(), 4);
        let err = expect_err(open_trace(
            dir.join("squeezy_source_missing.csv").to_str().unwrap(),
            0,
        ));
        assert_eq!(err.line, 0);

        let _ = std::fs::remove_file(az);
        let _ = std::fs::remove_file(od);
    }

    #[test]
    fn sample_traces_are_pinned_scale() {
        let rows = sample_azure_rows(3 * 1440, 4, 900.0);
        let total: u64 = rows.iter().map(|&(_, _, c)| c).sum();
        assert!(total >= 2_000_000, "3-day sample offers {total} arrivals");
        // The rendered sample parses back to exactly that many arrivals.
        let text = sample_azure_3day();
        let mut src = AzureMinuteSource::new(text.as_bytes(), 0).expect("parses");
        let mut n = 0u64;
        let mut last = 0;
        while let Some(a) = src.next_arrival().expect("valid") {
            assert!(a.t_ns >= last);
            last = a.t_ns;
            n += 1;
        }
        assert_eq!(n, total);
        assert!(last < 3 * 1440 * MINUTE_NS + MINUTE_NS);
    }
}

//! The conformance checks: spec coverage + wrapper-anatomy lints.

use crate::diag::Diagnostic;
use crate::extract::{
    absorb_calls, anatomy_uses, defines_absorb, facade_names, lock_call_lines, lock_holds,
    timed_call_lines, waivers, wrap_sites, BytesArg, SourceFile, WrapSite,
};
use ipm_interpose::{ApiFamily, BlockingClass};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One specification row (decoupled from `ipm_interpose::CallSpec` so tests
/// can inject doctored specs).
#[derive(Clone, Debug)]
pub struct SpecRow {
    pub name: String,
    pub family: ApiFamily,
    pub blocking: BlockingClass,
    pub has_bytes: bool,
}

/// The live specification, straight from the interposition registry.
pub fn spec_from_registry() -> Vec<SpecRow> {
    let reg = ipm_interpose::Registry::global();
    (0..reg.len())
        .map(|i| {
            let c = reg.spec(ipm_interpose::CallId(i as u32));
            SpecRow {
                name: c.name.to_owned(),
                family: c.family,
                blocking: c.blocking,
                has_bytes: c.has_bytes,
            }
        })
        .collect()
}

/// What role a scanned file plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Defines the simulated API surface (doc-named entry points).
    Facade,
    /// Wraps a facade and reports into the monitor (wrapper sites).
    Monitor,
    /// Monitor-internal locking whose discipline is checked.
    LockDiscipline,
}

/// The workspace scan set, repo-relative.
pub const SCANNED_FILES: &[(&str, Role)] = &[
    ("crates/gpu-sim/src/api.rs", Role::Facade),
    ("crates/gpu-sim/src/runtime.rs", Role::Facade),
    ("crates/gpu-sim/src/driver.rs", Role::Facade),
    ("crates/mpi-sim/src/api.rs", Role::Facade),
    ("crates/numlib/src/cublas.rs", Role::Facade),
    ("crates/numlib/src/cufft.rs", Role::Facade),
    ("crates/sim-core/src/fsio.rs", Role::Facade),
    ("crates/ipm-core/src/cuda_mon.rs", Role::Monitor),
    ("crates/ipm-core/src/driver_mon.rs", Role::Monitor),
    ("crates/ipm-core/src/mpi_mon.rs", Role::Monitor),
    ("crates/ipm-core/src/numlib_mon.rs", Role::Monitor),
    ("crates/ipm-core/src/io_mon.rs", Role::Monitor),
    ("crates/ipm-core/src/table.rs", Role::LockDiscipline),
    ("crates/ipm-core/src/facade.rs", Role::LockDiscipline),
    ("crates/ipm-core/src/trace.rs", Role::LockDiscipline),
    // The export pipeline: lock-free rendering code, scanned so the
    // lock-order discipline keeps holding as backends grow.
    ("crates/ipm-core/src/jsonw.rs", Role::LockDiscipline),
    ("crates/ipm-core/src/export/mod.rs", Role::LockDiscipline),
    ("crates/ipm-core/src/export/chrome.rs", Role::LockDiscipline),
    ("crates/ipm-core/src/export/otlp.rs", Role::LockDiscipline),
];

/// Paper Table: per-family call counts the spec must reproduce.
pub const EXPECTED_COUNTS: &[(ApiFamily, usize)] = &[
    (ApiFamily::CudaRuntime, 65),
    (ApiFamily::CudaDriver, 99),
    (ApiFamily::Cublas, 167),
    (ApiFamily::Cufft, 13),
    (ApiFamily::Mpi, 17),
    (ApiFamily::Io, 4),
];

fn family_name(f: ApiFamily) -> &'static str {
    match f {
        ApiFamily::CudaRuntime => "cuda-runtime",
        ApiFamily::CudaDriver => "cuda-driver",
        ApiFamily::Cublas => "cublas",
        ApiFamily::Cufft => "cufft",
        ApiFamily::Mpi => "mpi",
        ApiFamily::Io => "io",
    }
}

/// Run every check over a spec + source set and return all findings
/// (un-baselined; the caller applies the allowlist).
pub fn run(spec: &[SpecRow], files: &[(Role, SourceFile)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let by_name: HashMap<&str, &SpecRow> = spec.iter().map(|r| (r.name.as_str(), r)).collect();

    // -------- spec self-consistency --------
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in spec {
        *counts.entry(family_name(r.family)).or_default() += 1;
    }
    for &(fam, want) in EXPECTED_COUNTS {
        let got = counts.get(family_name(fam)).copied().unwrap_or(0);
        if got != want {
            diags.push(Diagnostic {
                code: "family-count",
                target: family_name(fam).to_owned(),
                file: "crates/interpose/src/spec.rs".to_owned(),
                line: 0,
                message: format!(
                    "{} family has {got} spec rows, the paper's interface inventory requires {want}",
                    family_name(fam)
                ),
            });
        }
    }
    // the probe is driven by the spec's blocking class now (the facades
    // carry no routing of their own), so §III-C's memset exception must
    // hold at the spec level: a misclassified row would probe everywhere
    for r in spec {
        if r.name.contains("emset") && r.blocking == BlockingClass::ImplicitSync {
            diags.push(Diagnostic {
                code: "host-idle",
                target: r.name.clone(),
                file: "crates/interpose/src/spec.rs".to_owned(),
                line: 0,
                message: format!(
                    "`{}` is a memset — excluded from the implicit-blocking set (paper §III-C) — yet its spec row is ImplicitSync, which would probe it on every call",
                    r.name
                ),
            });
        }
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for r in spec {
        if !seen.insert(r.name.as_str()) {
            diags.push(Diagnostic {
                code: "duplicate-name",
                target: r.name.clone(),
                file: "crates/interpose/src/spec.rs".to_owned(),
                line: 0,
                message: format!(
                    "`{}` appears in more than one spec row; signatures key on the bare name and would merge",
                    r.name
                ),
            });
        }
    }

    // -------- facade surface --------
    let mut facades: Vec<crate::extract::FacadeName> = Vec::new();
    let mut facade_seen: HashSet<String> = HashSet::new();
    for (role, f) in files {
        if *role != Role::Facade {
            continue;
        }
        for fname in facade_names(f) {
            if facade_seen.insert(fname.name.clone()) {
                facades.push(fname);
            }
        }
    }

    // -------- wrapper sites --------
    let mut sites: Vec<WrapSite> = Vec::new();
    let mut all_waivers = Vec::new();
    for (role, f) in files {
        if *role == Role::Monitor {
            sites.extend(wrap_sites(f));
        }
        if *role != Role::Facade {
            all_waivers.extend(waivers(f));
        }
    }
    let waived = |code: &str, file: &str, fn_name: &str| {
        all_waivers
            .iter()
            .any(|w| w.code == code && w.file == file && w.fn_name == fn_name)
    };
    let wrapped_names: HashSet<&str> = sites.iter().map(|s| s.name.as_str()).collect();

    // orphan-facade: doc-modeled but not a spec row
    for f in &facades {
        if !by_name.contains_key(f.name.as_str()) {
            diags.push(Diagnostic {
                code: "orphan-facade",
                target: f.name.clone(),
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "facade models `{}`, which is not a row of the call specification",
                    f.name
                ),
            });
        }
    }

    // missing-wrapper: modeled + specified but never monitored
    for f in &facades {
        if by_name.contains_key(f.name.as_str()) && !wrapped_names.contains(f.name.as_str()) {
            diags.push(Diagnostic {
                code: "missing-wrapper",
                target: f.name.clone(),
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "`{}` is in the spec and modeled by this facade, but no monitor wraps it",
                    f.name
                ),
            });
        }
    }

    // orphan-wrapper: monitored under a name the spec does not know
    let mut orphan_seen: HashSet<&str> = HashSet::new();
    for s in &sites {
        if !by_name.contains_key(s.name.as_str()) && orphan_seen.insert(s.name.as_str()) {
            diags.push(Diagnostic {
                code: "orphan-wrapper",
                target: s.name.clone(),
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "wrapper reports `{}` (as `{}`), which is not a row of the call specification",
                    s.name, s.raw_name
                ),
            });
        }
    }

    // wrap-once: a single method must report one name to the sink once;
    // two sites in one fn need a waiver (mutually-exclusive branches)
    let mut per_fn: BTreeMap<(String, String, String), Vec<&WrapSite>> = BTreeMap::new();
    for s in &sites {
        per_fn
            .entry((s.file.clone(), s.fn_name.clone(), s.name.clone()))
            .or_default()
            .push(s);
    }
    for ((file, fn_name, name), group) in &per_fn {
        if group.len() > 1 && !waived("wrap-once", file, fn_name) {
            diags.push(Diagnostic {
                code: "wrap-once",
                target: name.clone(),
                file: file.clone(),
                line: group[1].line,
                message: format!(
                    "`{fn_name}` reports `{name}` to the sink at {} sites; a call must be booked exactly once (waive with `speccheck: allow(wrap-once)` for exclusive branches)",
                    group.len()
                ),
            });
        }
    }

    // unified anatomy: a monitor facade may only delegate to the shared
    // core — re-growing timing/probing plumbing of its own is the drift
    // this refactor removed
    for (role, f) in files {
        if *role != Role::Monitor {
            continue;
        }
        for u in anatomy_uses(f) {
            if waived("anatomy", &u.file, &u.fn_name) {
                continue;
            }
            diags.push(Diagnostic {
                code: "anatomy",
                target: u.what.trim_end_matches('(').to_owned(),
                file: u.file.clone(),
                line: u.line,
                message: format!(
                    "`{}` uses `{}` directly; wrapper anatomy (timing, probing, overhead, booking) lives only in FacadeCore — delegate through `self.core` (waive with `speccheck: allow(anatomy)`)",
                    u.fn_name,
                    u.what.trim_end_matches('(')
                ),
            });
        }
    }

    // host-idle routing: in monitors implementing the probe (the legacy
    // per-facade anatomy), every implicit-sync wrapper must probe first,
    // and memsets must not
    for (role, f) in files {
        if *role != Role::Monitor || !defines_absorb(f) {
            continue;
        }
        let absorbs = absorb_calls(f);
        for s in wrap_sites(f) {
            let Some(row) = by_name.get(s.name.as_str()) else {
                continue;
            };
            let probed = absorbs
                .iter()
                .any(|(fn_name, line)| *fn_name == s.fn_name && *line < s.line);
            if row.blocking == BlockingClass::ImplicitSync && !probed {
                diags.push(Diagnostic {
                    code: "host-idle",
                    target: s.name.clone(),
                    file: s.file.clone(),
                    line: s.line,
                    message: format!(
                        "`{}` is in the implicit-blocking set but `{}` does not call absorb_host_idle() before the wrapped call",
                        s.name, s.fn_name
                    ),
                });
            }
            if s.name.contains("emset") && probed {
                diags.push(Diagnostic {
                    code: "host-idle",
                    target: s.name.clone(),
                    file: s.file.clone(),
                    line: s.line,
                    message: format!(
                        "`{}` is a memset — excluded from the implicit-blocking set (paper §III-C) — yet `{}` probes for host idle",
                        s.name, s.fn_name
                    ),
                });
            }
        }
    }

    // bytes attribution must match the spec row
    for s in &sites {
        let Some(row) = by_name.get(s.name.as_str()) else {
            continue;
        };
        match (&s.bytes, row.has_bytes) {
            (BytesArg::Zero, true) => diags.push(Diagnostic {
                code: "bytes-attr",
                target: s.name.clone(),
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "spec says `{}` carries a byte count, but the wrapper passes a literal 0",
                    s.name
                ),
            }),
            (BytesArg::Expr(e), false) => diags.push(Diagnostic {
                code: "bytes-attr",
                target: s.name.clone(),
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "spec says `{}` has no byte attribute, but the wrapper passes `{e}`",
                    s.name
                ),
            }),
            (BytesArg::ResultSized, false) => diags.push(Diagnostic {
                code: "bytes-attr",
                target: s.name.clone(),
                file: s.file.clone(),
                line: s.line,
                message: format!(
                    "spec says `{}` has no byte attribute, but the wrapper sizes it from the result",
                    s.name
                ),
            }),
            _ => {}
        }
    }

    // lock-across-call: no monitor may hold a let-bound guard across the
    // real (wrapped) call — the sink/table takes its own locks inside
    for (role, f) in files {
        if *role != Role::Monitor {
            continue;
        }
        let holds = lock_holds(f);
        for s in wrap_sites(f) {
            for h in &holds {
                if s.line > h.line
                    && s.line < h.scope_end
                    && !waived("lock-across-call", &s.file, &s.fn_name)
                {
                    diags.push(Diagnostic {
                        code: "lock-across-call",
                        target: s.name.clone(),
                        file: s.file.clone(),
                        line: s.line,
                        message: format!(
                            "`{}` wraps the real call while the guard taken at line {} is still held (waive with `speccheck: allow(lock-across-call)` if the bracketing requires it)",
                            s.fn_name, h.line
                        ),
                    });
                }
            }
        }
    }

    // lock-order: the table/trace locks must never nest; and, as in the
    // monitors, no guard may be held across the timed path (the core's KTT
    // bracket is the one waived exception)
    for (role, f) in files {
        if *role != Role::LockDiscipline {
            continue;
        }
        let holds = lock_holds(f);
        let calls = lock_call_lines(f);
        let timed = timed_call_lines(f);
        for h in &holds {
            let held_across = timed.iter().find(|&&c| c > h.line && c < h.scope_end);
            if let Some(&c) = held_across {
                if !waived("lock-across-call", &f.rel, &h.fn_name) {
                    diags.push(Diagnostic {
                        code: "lock-across-call",
                        target: h.fn_name.clone(),
                        file: f.rel.clone(),
                        line: c,
                        message: format!(
                            "`{}` enters the timed path while the guard taken at line {} is still held (waive with `speccheck: allow(lock-across-call)` if the bracketing requires it)",
                            h.fn_name, h.line
                        ),
                    });
                }
            }
            for &c in &calls {
                if c > h.line && c < h.scope_end {
                    diags.push(Diagnostic {
                        code: "lock-order",
                        target: format!("{}:{}", f.rel, c),
                        file: f.rel.clone(),
                        line: c,
                        message: format!(
                            "second `.lock()` while the lock guard from line {} is held — locks must never nest",
                            h.line
                        ),
                    });
                }
            }
        }
    }

    diags.sort_by(|a, b| {
        (a.code, &a.file, a.line, &a.target).cmp(&(b.code, &b.file, b.line, &b.target))
    });
    diags
}

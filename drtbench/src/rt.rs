//! Calls into a `DrtRuntime` shared by the single-node workloads, each
//! wrapped in the span of the layer it enters.

use crate::stats::Digest;
use crate::trace::Tracer;
use drcom::drcr::ComponentProvider;
use drcom::hybrid::RtLogic;
use drcom::runtime::{DrcomActivator, DrtRuntime};
use osgi::event::BundleId;
use osgi::manifest::BundleManifest;
use osgi::version::Version;
use std::collections::BTreeMap;

/// Parses a shipped XML descriptor into a deployable provider.
pub fn parse(
    tr: &mut Tracer,
    xml: &str,
    factory: impl Fn() -> Box<dyn RtLogic> + 'static,
) -> Result<ComponentProvider, String> {
    tr.span("descriptor.parse", || {
        ComponentProvider::from_xml(xml, factory)
    })
    .map_err(|e| format!("descriptor: {e}"))
}

/// Installs and starts one bundle per provider through the framework, then
/// lets the DRCR resolve the whole wave in one round — what
/// `DrtRuntime::install_components` does, split at the layer boundary.
pub fn install(
    rt: &mut DrtRuntime,
    tr: &mut Tracer,
    wave: Vec<(String, ComponentProvider)>,
) -> Result<Vec<BundleId>, String> {
    let bundles = tr.span("osgi.framework", || {
        let fw = rt.framework_mut();
        wave.into_iter()
            .map(|(bundle, provider)| {
                let manifest = BundleManifest::new(&bundle, Version::new(1, 0, 0));
                let id = fw.install(manifest, Box::new(DrcomActivator::new(provider)))?;
                fw.start(id)?;
                Ok(id)
            })
            .collect::<Result<Vec<_>, osgi::framework::FrameworkError>>()
    });
    tr.span("drcr.process", || rt.process());
    bundles.map_err(|e| format!("install: {e}"))
}

/// Runs one framework call on a bundle, then the DRCR's resolve round.
pub fn bundle_op(
    rt: &mut DrtRuntime,
    tr: &mut Tracer,
    what: &str,
    bundle: BundleId,
    call: fn(
        &mut osgi::framework::Framework,
        BundleId,
    ) -> Result<(), osgi::framework::FrameworkError>,
) -> Result<(), String> {
    let r = tr.span("osgi.framework", || call(rt.framework_mut(), bundle));
    tr.span("drcr.process", || rt.process());
    r.map_err(|e| format!("{what} {bundle}: {e}"))
}

/// Kernel and DRCR work counters, under their per-layer metric names.
pub fn counters(rt: &DrtRuntime) -> BTreeMap<&'static str, f64> {
    const DRCR: [(&str, &str); 11] = [
        ("drcr.resolve.rounds", "drcr.resolve_rounds"),
        ("drcr.wiring.checks", "drcr.wiring_checks"),
        ("drcr.wiring.evals", "drcr.wiring_evals"),
        ("drcr.wiring.memo_hits", "drcr.wiring_memo_hits"),
        ("drcr.view.rebuilds", "drcr.view_rebuilds"),
        ("drcr.view.updates", "drcr.view_updates"),
        ("drcr.admission.checks", "drcr.admission_checks"),
        ("drcr.admission.evals", "drcr.admission_evals"),
        ("drcr.admission.memo_hits", "drcr.admission_memo_hits"),
        ("drcr.activations", "drcr.activations"),
        ("drcr.deactivations", "drcr.deactivations"),
    ];
    let report = rt.drcr().metrics_report();
    let mut out: BTreeMap<&'static str, f64> = DRCR
        .iter()
        .map(|(key, name)| {
            let v = report
                .counters()
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v);
            (*name, v as f64)
        })
        .collect();
    let c = rt.kernel().counters();
    out.insert("kernel.dispatches", c.dispatches as f64);
    out.insert("kernel.preemptions", c.preemptions as f64);
    out
}

/// The semantic outcome of a runtime: every component's state, mode,
/// reservation and latency statistics, the per-CPU ledger and the
/// scheduler counters.
pub fn digest(rt: &DrtRuntime) -> u64 {
    let mut d = Digest::default();
    let drcr = rt.drcr();
    let kernel = rt.kernel();
    for name in drcr.component_names() {
        d.str(&name);
        d.str(&format!("{:?}", drcr.state_of(&name)));
        d.str(drcr.current_mode_ref(&name).unwrap_or(""));
        if let Some((cpu, claim)) = drcr.ledger().reservation(&name) {
            d.u64(u64::from(cpu));
            d.f64(claim);
        }
        if let Some(s) = drcr.task_of(&name).and_then(|t| kernel.task_stats(t)) {
            d.u64(s.count() as u64);
            d.f64(s.average());
            d.u64(s.min().unwrap_or(0) as u64);
            d.u64(s.max().unwrap_or(0) as u64);
        }
    }
    for cpu in 0..drcr.ledger().cpu_count() {
        d.f64(drcr.ledger().utilization(cpu));
    }
    let c = kernel.counters();
    for v in [
        c.dispatches,
        c.preemptions,
        c.timeslices,
        c.overruns,
        c.faults,
        c.deadline_misses,
    ] {
        d.u64(v);
    }
    d.finish()
}

/// Checks that each CPU's ledger total equals the claims of the components
/// holding admission on it.
pub fn ledger_matches_claims(rt: &DrtRuntime) -> Result<(), String> {
    let drcr = rt.drcr();
    let ledger = drcr.ledger();
    let mut claims = vec![0.0; ledger.cpu_count() as usize];
    for name in drcr.component_names() {
        if !drcr.state_of(&name).is_some_and(|s| s.holds_admission()) {
            continue;
        }
        let d = drcr.descriptor_ref(&name).expect("registered");
        claims[d.task.cpu() as usize] += d.cpu_usage.fraction();
    }
    for (cpu, claimed) in claims.iter().enumerate() {
        let booked = ledger.utilization(cpu as u32);
        if (booked - claimed).abs() > 1e-9 {
            return Err(format!(
                "CPU {cpu}: ledger books {booked} but admitted claims sum to {claimed}"
            ));
        }
    }
    Ok(())
}

/// `(deadline misses, dispatches)` of the runtime's kernel.
pub fn deadline_misses(rt: &DrtRuntime) -> (u64, u64) {
    let c = rt.kernel().counters();
    (c.deadline_misses, c.dispatches)
}

//! `reconfig_churn`: the management plane on a large fleet.
//!
//! 20,000 components — 200 hub providers, each feeding 99 consumers over
//! shared memory — under the default utilization admission. The closed
//! loop rotates through seven ops: stop a hub (its cohort cascades to
//! Unsatisfied), start it again (the cohort re-activates), switch a
//! consumer to its low-rate mode and back, uninstall and reinstall a
//! consumer, and refine a consumer's claim. Every 56th op (eight
//! rotations) also advances the kernel by 1 ms, so the kernel does almost
//! nothing. Per-op work should scale with the cohort, not the fleet: this
//! is where O(n) to O(changed) work shows.
//!
//! The seventh op is there for the statistics as much as for the
//! management plane: with an even number of equally frequent op types the
//! median falls in the gap between two of them and swings from run to
//! run; with seven it lands inside one.

use crate::harness::{ratio, Plan, Report, Traced, Workload};
use crate::rt;
use crate::trace::Tracer;
use drcom::descriptor::ComponentDescriptor;
use drcom::hybrid::{FnLogic, RtIo, RtLogic};
use drcom::lifecycle::ComponentState;
use drcom::manage::ComponentControl;
use drcom::model::{PortInterface, BASE_MODE};
use drcom::runtime::DrtRuntime;
use osgi::event::BundleId;
use osgi::framework::Framework;
use rtos::kernel::KernelConfig;
use rtos::rng::SimRng;
use rtos::shm::DataType;
use rtos::time::SimDuration;
use std::collections::BTreeMap;
use std::rc::Rc;

const CPUS: u32 = 4;
/// Ops per rotation.
const ROTATION: u64 = 7;
const KERNEL_STEP: SimDuration = SimDuration::from_millis(1);
/// A consumer's declared claim and the one the seventh op refines it to.
const CONSUMER_CLAIM: f64 = 0.0001;
const REFINED_CLAIM: f64 = 0.00008;
/// System-view calls timed on the final fleet in a traced run.
const VIEW_PROBES: usize = 5;

pub struct Inputs {
    seed: u64,
    plan: Plan,
    hubs: usize,
    per_hub: usize,
    /// Advance the kernel after every this many ops.
    kernel_every: u64,
    hub_xml: Vec<String>,
    consumer_xml: Rc<Vec<String>>,
}

fn hub_name(j: usize) -> String {
    format!("h{j:03}")
}

fn consumer_name(i: usize) -> String {
    format!("c{i:05}")
}

fn idle() -> Box<dyn RtLogic> {
    Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
}

pub struct Churn {
    rt: DrtRuntime,
    plan: Plan,
    hubs: usize,
    per_hub: usize,
    kernel_every: u64,
    consumer_xml: Rc<Vec<String>>,
    rng: SimRng,
    hub_bundles: Vec<BundleId>,
    consumer_bundles: Vec<BundleId>,
    step: u64,
    /// The hub and the consumers the current rotation works on.
    hub: usize,
    switched: usize,
    reinstalled: usize,
    refined: usize,
}

impl Churn {
    fn expect(&self, name: &str, want: Option<ComponentState>) -> Result<(), String> {
        let got = self.rt.component_state(name);
        if got == want {
            Ok(())
        } else {
            Err(format!("`{name}` is {got:?}, expected {want:?}"))
        }
    }

    fn expect_cohort(&self, hub: usize, want: ComponentState) -> Result<(), String> {
        (hub..self.hubs * self.per_hub)
            .step_by(self.hubs)
            .try_for_each(|i| self.expect(&consumer_name(i), Some(want)))
    }

    fn expect_mode(&self, i: usize, mode: &str) -> Result<(), String> {
        let name = consumer_name(i);
        self.expect(&name, Some(ComponentState::Active))?;
        match self.rt.drcr().current_mode_ref(&name) {
            Some(m) if m == mode => Ok(()),
            other => Err(format!("`{name}` runs mode {other:?}, expected `{mode}`")),
        }
    }
}

impl Workload for Churn {
    const NAME: &'static str = "reconfig_churn";
    type Inputs = Inputs;

    fn inputs(seed: u64, smoke: bool) -> Inputs {
        let mut rng = SimRng::from_seed(seed);
        // A window is one kernel step: whole rotations, whole steps.
        let (hubs, kernel_every, windows) = if smoke {
            (2, ROTATION, 4)
        } else {
            (200, 8 * ROTATION, 72)
        };
        let per_hub = 99;
        let plan = Plan {
            window_ops: kernel_every,
            min_ops: windows * kernel_every,
            digest_at: windows / 4 * kernel_every,
        };
        let hub_xml = (0..hubs)
            .map(|j| {
                ComponentDescriptor::builder(&hub_name(j))
                    .description("hub provider")
                    .implementation("drtbench.hub")
                    .periodic(100, (j % CPUS as usize) as u32, 2)
                    .cpu_usage(0.001)
                    .outport(
                        &format!("p{j:03}"),
                        PortInterface::Shm,
                        DataType::Integer,
                        1,
                    )
                    .build()
                    .expect("generated descriptor is valid")
                    .to_xml()
            })
            .collect();
        let consumer_xml = (0..hubs * per_hub)
            .map(|i| {
                let prio = rng.uniform_u64(3, 9) as u8;
                ComponentDescriptor::builder(&consumer_name(i))
                    .description("hub consumer")
                    .implementation("drtbench.consumer")
                    .periodic(50, (i % CPUS as usize) as u32, prio)
                    .cpu_usage(CONSUMER_CLAIM)
                    .inport(
                        &format!("p{:03}", i % hubs),
                        PortInterface::Shm,
                        DataType::Integer,
                        1,
                    )
                    .mode("lo", 25, 0.00005, prio)
                    .build()
                    .expect("generated descriptor is valid")
                    .to_xml()
            })
            .collect();
        Inputs {
            seed,
            plan,
            hubs,
            per_hub,
            kernel_every,
            hub_xml,
            consumer_xml: Rc::new(consumer_xml),
        }
    }

    fn build(inputs: &Inputs, tr: &mut Tracer) -> Result<Self, String> {
        let mut rt = DrtRuntime::new(KernelConfig::new(inputs.seed).with_cpus(CPUS));
        let mut wave = Vec::with_capacity(inputs.hubs);
        for (j, xml) in inputs.hub_xml.iter().enumerate() {
            wave.push((format!("churn.{}", hub_name(j)), rt::parse(tr, xml, idle)?));
        }
        let hub_bundles = rt::install(&mut rt, tr, wave)?;
        let mut wave = Vec::with_capacity(inputs.consumer_xml.len());
        for (i, xml) in inputs.consumer_xml.iter().enumerate() {
            wave.push((
                format!("churn.{}", consumer_name(i)),
                rt::parse(tr, xml, idle)?,
            ));
        }
        let consumer_bundles = rt::install(&mut rt, tr, wave)?;
        Ok(Churn {
            rt,
            plan: inputs.plan,
            hubs: inputs.hubs,
            per_hub: inputs.per_hub,
            kernel_every: inputs.kernel_every,
            consumer_xml: inputs.consumer_xml.clone(),
            rng: SimRng::from_seed(inputs.seed ^ 0xC4A5),
            hub_bundles,
            consumer_bundles,
            step: 0,
            hub: 0,
            switched: 0,
            reinstalled: 0,
            refined: 0,
        })
    }

    fn plan(&self) -> Plan {
        self.plan
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let n = self.hubs * self.per_hub;
        let result = match self.step % ROTATION {
            0 => {
                self.hub = self.rng.uniform_u64(0, self.hubs as u64) as usize;
                let b = self.hub_bundles[self.hub];
                rt::bundle_op(&mut self.rt, tr, "stop", b, Framework::stop)
            }
            1 => {
                let b = self.hub_bundles[self.hub];
                rt::bundle_op(&mut self.rt, tr, "start", b, Framework::start)
            }
            2 => {
                self.switched = self.rng.uniform_u64(0, n as u64) as usize;
                let name = consumer_name(self.switched);
                let rt = &mut self.rt;
                tr.span("drcr.switch_mode", || rt.switch_mode(&name, "lo"))
                    .map_err(|e| format!("switch `{name}` to lo: {e}"))
            }
            3 => {
                let name = consumer_name(self.switched);
                let rt = &mut self.rt;
                tr.span("drcr.switch_mode", || rt.switch_mode(&name, BASE_MODE))
                    .map_err(|e| format!("switch `{name}` back: {e}"))
            }
            4 => {
                self.reinstalled = self.rng.uniform_u64(0, n as u64) as usize;
                let b = self.consumer_bundles[self.reinstalled];
                rt::bundle_op(&mut self.rt, tr, "uninstall", b, Framework::uninstall)
            }
            5 => {
                let i = self.reinstalled;
                rt::parse(tr, &self.consumer_xml[i], idle).and_then(|p| {
                    let bundles = rt::install(
                        &mut self.rt,
                        tr,
                        vec![(format!("churn.{}", consumer_name(i)), p)],
                    )?;
                    self.consumer_bundles[i] = bundles[0];
                    Ok(())
                })
            }
            _ => {
                self.refined = self.rng.uniform_u64(0, n as u64) as usize;
                let name = consumer_name(self.refined);
                let rt = &mut self.rt;
                tr.span("drcr.refine_claim", || {
                    rt.refine_claim(&name, REFINED_CLAIM, 1)
                })
                .map_err(|e| format!("refine `{name}`: {e}"))
            }
        };
        self.step += 1;
        if self.step.is_multiple_of(self.kernel_every) {
            let rt = &self.rt;
            tr.span("kernel.run_for", || rt.kernel_mut().run_for(KERNEL_STEP));
        }
        result
    }

    fn after_op(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        use ComponentState::{Active, Unsatisfied};
        match (self.step - 1) % ROTATION {
            0 => {
                self.expect(&hub_name(self.hub), None)?;
                self.expect_cohort(self.hub, Unsatisfied)
            }
            1 => {
                self.expect(&hub_name(self.hub), Some(Active))?;
                self.expect_cohort(self.hub, Active)
            }
            2 => self.expect_mode(self.switched, "lo"),
            3 => self.expect_mode(self.switched, BASE_MODE),
            4 => self.expect(&consumer_name(self.reinstalled), None),
            5 => self.expect(&consumer_name(self.reinstalled), Some(Active)),
            _ => {
                let name = consumer_name(self.refined);
                self.expect(&name, Some(Active))?;
                match self
                    .rt
                    .drcr()
                    .descriptor_ref(&name)
                    .map(|d| d.cpu_usage.fraction())
                {
                    Some(c) if c == REFINED_CLAIM => Ok(()),
                    c => Err(format!("`{name}` claims {c:?} after a refinement")),
                }
            }
        }
    }

    fn sim_now_ns(&self) -> u64 {
        self.rt.kernel().now().as_nanos()
    }

    fn digest(&self) -> u64 {
        rt::digest(&self.rt)
    }

    fn counters(&self) -> BTreeMap<&'static str, f64> {
        rt::counters(&self.rt)
    }

    fn finish(&mut self, tr: &mut Tracer, traced: Option<&Traced>, rep: &mut Report) {
        let inactive = (0..self.hubs)
            .map(hub_name)
            .chain((0..self.hubs * self.per_hub).map(consumer_name))
            .filter(|n| self.rt.component_state(n) != Some(ComponentState::Active))
            .count();
        rep.check(
            "fleet_back_to_active",
            inactive == 0,
            format!("{inactive} components not Active"),
        );
        let ledger = rt::ledger_matches_claims(&self.rt);
        rep.check(
            "ledger_matches_claims",
            ledger.is_ok(),
            ledger.err().unwrap_or_default(),
        );
        let (misses, dispatches) = rt::deadline_misses(&self.rt);
        rep.metric(
            "deadline_miss_rate",
            ratio(misses as f64, dispatches as f64),
            "ratio",
            format!("{misses}/{dispatches}"),
        );
        if traced.is_some() {
            for _ in 0..VIEW_PROBES {
                let rt = &self.rt;
                tr.begin("probe");
                tr.span("view.system_view", || drop(rt.drcr().system_view()));
                tr.end();
            }
        }
    }
}

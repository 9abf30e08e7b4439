//! `admission_waves`: the management plane on a small fleet near
//! saturation, where response-time admission does the work.
//!
//! Four CPUs carry a live set of about 160 components, admitted plus
//! waiting. The closed loop rotates through four ops: an arrival wave of
//! four components shipped as XML descriptors, a departure of four
//! (waiters first), a mode switch and a claim refinement. The kernel
//! advances 2 ms after every op. Arrivals, departures and contract changes
//! exercise admits beside rejects, while the view and the wiring stay
//! cheap because the fleet is small.

use crate::harness::{ratio, shuffle, Plan, Report, Traced, Workload};
use crate::rt;
use crate::trace::Tracer;
use drcom::descriptor::ComponentDescriptor;
use drcom::hybrid::{FnLogic, RtIo, RtLogic};
use drcom::lifecycle::ComponentState;
use drcom::manage::ComponentControl;
use drcom::model::BASE_MODE;
use drcom::rta::{RtaParams, RtaResolver};
use drcom::runtime::DrtRuntime;
use osgi::event::BundleId;
use rtos::kernel::KernelConfig;
use rtos::latency::TimerJitterModel;
use rtos::rng::SimRng;
use rtos::time::SimDuration;
use std::collections::BTreeMap;

const CPUS: u32 = 4;
const KERNEL_STEP: SimDuration = SimDuration::from_millis(2);
/// Components per arrival or departure.
const WAVE: usize = 4;
const RATES_HZ: [u32; 5] = [50, 100, 200, 250, 500];

/// One component's contract, drawn from the seeded generator.
#[derive(Debug, Clone)]
struct Contract {
    name: String,
    hz: u32,
    claim: f64,
    xml: String,
}

/// An arrival: every field drawn independently.
fn draw(rng: &mut SimRng, serial: usize) -> Contract {
    let hz = RATES_HZ[rng.uniform_u64(0, RATES_HZ.len() as u64) as usize];
    let cpu = rng.uniform_u64(0, u64::from(CPUS)) as u32;
    let prio = rng.uniform_u64(1, 21) as u8;
    contract(serial, hz, cpu, prio, rng.uniform_range(0.01, 0.04))
}

/// The initial fleet: per CPU the same rates, claims and priorities, paired
/// up by the seed, so set-up does the same admission work for every seed.
fn initial_fleet(rng: &mut SimRng, live: usize) -> Vec<Contract> {
    let per_cpu = live / CPUS as usize;
    let mut out = Vec::with_capacity(live);
    for cpu in 0..CPUS {
        let mut rates: Vec<u32> = (0..per_cpu).map(|j| RATES_HZ[j % RATES_HZ.len()]).collect();
        let mut prios: Vec<u8> = (0..per_cpu).map(|j| 1 + (j % 20) as u8).collect();
        shuffle(&mut rates, rng);
        shuffle(&mut prios, rng);
        for j in 0..per_cpu {
            let claim = 0.01 + 0.03 * (j as f64 + 0.5) / per_cpu as f64;
            out.push(contract(out.len() + 1, rates[j], cpu, prios[j], claim));
        }
    }
    out
}

fn contract(serial: usize, hz: u32, cpu: u32, prio: u8, claim: f64) -> Contract {
    let name = format!("w{serial:05x}");
    let xml = ComponentDescriptor::builder(&name)
        .description("admission wave member")
        .implementation("drtbench.wave")
        .periodic(hz, cpu, prio)
        .cpu_usage(claim)
        .mode("hi", hz, claim * 1.5, prio)
        .build()
        .expect("generated descriptor is valid")
        .to_xml();
    Contract {
        name,
        hz,
        claim,
        xml,
    }
}

/// Burns 80% of the base claim each cycle: every claim the loop sets
/// (refined, base or `hi`) stays at or above what the task really uses, so
/// the analysis' verdicts hold on the running kernel.
fn logic(c: &Contract) -> impl Fn() -> Box<dyn RtLogic> + 'static {
    let work = SimDuration::from_nanos((0.8 * c.claim * 1e9 / f64::from(c.hz)) as u64);
    move || Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| io.compute(work)))
}

pub struct Inputs {
    seed: u64,
    plan: Plan,
    initial: Vec<Contract>,
}

struct Member {
    contract: Contract,
    bundle: BundleId,
}

/// What the next op works on, chosen untimed after the previous one.
enum Next {
    Arrive(Vec<Contract>),
    Depart(Vec<usize>),
    Switch { at: usize, mode: &'static str },
    Refine { at: usize, claim: f64 },
}

/// The op just run, for its post-condition.
#[derive(Clone, Copy)]
enum Last {
    Arrived,
    Departed,
    Switched(&'static str),
    Refined(f64),
}

pub struct Waves {
    rt: DrtRuntime,
    plan: Plan,
    rng: SimRng,
    serial: usize,
    /// Live components in arrival order.
    live: Vec<Member>,
    next: Option<Next>,
    last: Last,
    /// Names touched by the last op, for its post-condition.
    touched: Vec<String>,
    arrivals: u64,
    rta: RtaResolver,
}

impl Waves {
    fn arrival(&mut self) -> Next {
        let wave = (0..WAVE)
            .map(|_| {
                self.serial += 1;
                draw(&mut self.rng, self.serial)
            })
            .collect();
        Next::Arrive(wave)
    }

    /// Waiters leave first, oldest first; then the oldest admitted.
    fn departure(&mut self) -> Next {
        let waiting = |m: &Member| {
            self.rt.component_state(&m.contract.name) == Some(ComponentState::Unsatisfied)
        };
        let mut victims: Vec<usize> = (0..self.live.len())
            .filter(|&i| waiting(&self.live[i]))
            .take(WAVE)
            .collect();
        let mut i = 0;
        while victims.len() < WAVE.min(self.live.len()) {
            if !victims.contains(&i) {
                victims.push(i);
            }
            i += 1;
        }
        Next::Depart(victims)
    }

    fn switch(&mut self) -> Next {
        let at = self.rng.uniform_u64(0, self.live.len() as u64) as usize;
        let name = &self.live[at].contract.name;
        let mode = match self.rt.drcr().current_mode_ref(name) {
            Some(m) if m == BASE_MODE => "hi",
            _ => BASE_MODE,
        };
        Next::Switch { at, mode }
    }

    fn refine(&mut self) -> Next {
        let active: Vec<usize> = (0..self.live.len())
            .filter(|&i| {
                self.rt.component_state(&self.live[i].contract.name) == Some(ComponentState::Active)
            })
            .collect();
        let at = active[self.rng.uniform_u64(0, active.len() as u64) as usize];
        let claim = self.live[at].contract.claim * self.rng.uniform_range(0.85, 1.0);
        Next::Refine { at, claim }
    }

    /// Times the analysis of each new arrival against the post-op view, the
    /// share of the resolve round response-time analysis accounts for.
    fn probe_rta(&self, tr: &mut Tracer) {
        let view = self.rt.drcr().system_view();
        for name in &self.touched {
            if let Some(info) = view.component(name) {
                tr.begin("probe");
                tr.span("rta.analyze", || drop(self.rta.analyze(info, &view)));
                tr.end();
            }
        }
    }
}

impl Workload for Waves {
    const NAME: &'static str = "admission_waves";
    type Inputs = Inputs;

    fn inputs(seed: u64, smoke: bool) -> Inputs {
        let (live, plan) = if smoke {
            (
                16,
                Plan {
                    window_ops: 20,
                    min_ops: 40,
                    digest_at: 40,
                },
            )
        } else {
            (
                160,
                // 25 rotations per window even out the random arrivals.
                Plan {
                    window_ops: 100,
                    min_ops: 4000,
                    digest_at: 1000,
                },
            )
        };
        let mut rng = SimRng::from_seed(seed);
        let initial = initial_fleet(&mut rng, live);
        Inputs {
            seed,
            plan,
            initial,
        }
    }

    fn build(inputs: &Inputs, tr: &mut Tracer) -> Result<Self, String> {
        // An ideal timer: the analysis has no release-jitter term, so a
        // jittered timer could make a proven set miss.
        let mut rt = DrtRuntime::with_resolver(
            KernelConfig::new(inputs.seed)
                .with_cpus(CPUS)
                .with_timer(TimerJitterModel::ideal()),
            Box::new(RtaResolver::new(RtaParams::default())),
        );
        let contracts = inputs.initial.clone();
        let mut wave = Vec::with_capacity(contracts.len());
        for c in &contracts {
            wave.push((
                format!("waves.{}", c.name),
                rt::parse(tr, &c.xml, logic(c))?,
            ));
        }
        let bundles = rt::install(&mut rt, tr, wave)?;
        let live = contracts
            .into_iter()
            .zip(bundles)
            .map(|(contract, bundle)| Member { contract, bundle })
            .collect();
        let mut w = Waves {
            rt,
            plan: inputs.plan,
            rng: SimRng::from_seed(inputs.seed ^ 0xA11E),
            serial: inputs.initial.len(),
            live,
            next: None,
            last: Last::Refined(0.0),
            touched: Vec::new(),
            arrivals: 0,
            rta: RtaResolver::new(RtaParams::default()),
        };
        w.next = Some(w.arrival());
        Ok(w)
    }

    fn plan(&self) -> Plan {
        self.plan
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.touched.clear();
        let next = self.next.take().expect("planned after the previous op");
        let result = match next {
            Next::Arrive(wave) => {
                self.last = Last::Arrived;
                let mut providers = Vec::with_capacity(wave.len());
                let mut parsed = Ok(());
                for c in &wave {
                    match rt::parse(tr, &c.xml, logic(c)) {
                        Ok(p) => providers.push((format!("waves.{}", c.name), p)),
                        Err(e) => parsed = parsed.and(Err(e)),
                    }
                }
                parsed
                    .and_then(|()| rt::install(&mut self.rt, tr, providers))
                    .map(|bundles| {
                        self.arrivals += wave.len() as u64;
                        for (c, bundle) in wave.into_iter().zip(bundles) {
                            self.touched.push(c.name.clone());
                            self.live.push(Member {
                                contract: c,
                                bundle,
                            });
                        }
                    })
            }
            Next::Depart(mut victims) => {
                self.last = Last::Departed;
                victims.sort_unstable_by(|a, b| b.cmp(a));
                let gone: Vec<Member> = victims.into_iter().map(|i| self.live.remove(i)).collect();
                let rt = &mut self.rt;
                let r = tr.span("osgi.framework", || {
                    gone.iter()
                        .try_for_each(|m| rt.framework_mut().uninstall(m.bundle))
                });
                tr.span("drcr.process", || rt.process());
                self.touched = gone.iter().map(|m| m.contract.name.clone()).collect();
                r.map_err(|e| format!("uninstall: {e}"))
            }
            Next::Switch { at, mode } => {
                self.last = Last::Switched(mode);
                let name = self.live[at].contract.name.clone();
                let rt = &mut self.rt;
                let r = tr.span("drcr.switch_mode", || rt.switch_mode(&name, mode));
                self.touched.push(name.clone());
                r.map_err(|e| format!("switch `{name}` to {mode}: {e}"))
            }
            Next::Refine { at, claim } => {
                self.last = Last::Refined(claim);
                let name = self.live[at].contract.name.clone();
                let rt = &mut self.rt;
                let r = tr.span("drcr.refine_claim", || rt.refine_claim(&name, claim, 1));
                self.touched.push(name.clone());
                r.map_err(|e| format!("refine `{name}` to {claim}: {e}"))
            }
        };
        let rt = &self.rt;
        tr.span("kernel.run_for", || rt.kernel_mut().run_for(KERNEL_STEP));
        result
    }

    fn after_op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let drcr = self.rt.drcr();
        let state = |n: &str| drcr.state_of(n);
        let post = match self.last {
            Last::Arrived => self.touched.iter().try_for_each(|n| match state(n) {
                Some(ComponentState::Active | ComponentState::Unsatisfied) => Ok(()),
                s => Err(format!("arrival `{n}` is {s:?}")),
            }),
            Last::Departed => self.touched.iter().try_for_each(|n| match state(n) {
                None => Ok(()),
                s => Err(format!("departed `{n}` is still {s:?}")),
            }),
            Last::Switched(mode) => {
                self.touched
                    .iter()
                    .try_for_each(|n| match drcr.current_mode_ref(n) {
                        Some(m) if m == mode => Ok(()),
                        m => Err(format!("`{n}` runs mode {m:?} after a switch to {mode}")),
                    })
            }
            Last::Refined(claim) => self.touched.iter().try_for_each(|n| {
                match drcr.descriptor_ref(n).map(|d| d.cpu_usage.fraction()) {
                    Some(c) if c == claim => Ok(()),
                    c => Err(format!("`{n}` claims {c:?} after a refinement to {claim}")),
                }
            }),
        };
        drop(drcr);
        if tr.is_on() && matches!(self.last, Last::Arrived) {
            self.probe_rta(tr);
        }
        let ledger = rt::ledger_matches_claims(&self.rt);
        self.next = Some(match self.last {
            Last::Arrived => self.departure(),
            Last::Departed => self.switch(),
            Last::Switched(_) => self.refine(),
            Last::Refined(_) => self.arrival(),
        });
        post.and(ledger)
    }

    fn sim_now_ns(&self) -> u64 {
        self.rt.kernel().now().as_nanos()
    }

    fn digest(&self) -> u64 {
        rt::digest(&self.rt)
    }

    fn counters(&self) -> BTreeMap<&'static str, f64> {
        let mut c = rt::counters(&self.rt);
        c.insert("drcr.arrivals", self.arrivals as f64);
        c
    }

    fn finish(&mut self, _tr: &mut Tracer, traced: Option<&Traced>, rep: &mut Report) {
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
        rep.check(
            "no_deadline_misses",
            misses == 0,
            format!("{misses} misses under RTA"),
        );
        let waiting = self
            .live
            .iter()
            .filter(|m| {
                self.rt.component_state(&m.contract.name) == Some(ComponentState::Unsatisfied)
            })
            .count();
        rep.metric(
            "live_components",
            self.live.len() as f64,
            "count",
            format!("{waiting} waiting"),
        );
        if let Some(t) = traced {
            rep.metric(
                "drcr.admit_ratio",
                ratio(t.delta("drcr.activations"), t.delta("drcr.arrivals")),
                "ratio",
                "activations / arrivals",
            );
        }
    }
}

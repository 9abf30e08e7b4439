//! The global system view the DRCR maintains and exposes to resolvers.
//!
//! The paper's central argument (§2.2) is that real-time contracts can only
//! be preserved under dynamicity if a single authority holds "a complete and
//! accurate global view of current system context". [`SystemView`] is that
//! snapshot: every registered component's declared contract and current
//! lifecycle state, plus per-CPU admission totals. Resolving services reason
//! over this view and nothing else, which keeps them pure and composable.

use crate::lifecycle::ComponentState;
use crate::model::{ClaimSum, TaskSpec};
use std::cell::OnceCell;
use std::rc::Rc;

/// Declared contract + current state of one component, as resolvers see it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentInfo {
    /// Component name (interned; cheap to clone between snapshots).
    pub name: Rc<str>,
    /// Current lifecycle state.
    pub state: ComponentState,
    /// CPU the task is pinned to.
    pub cpu: u32,
    /// Claimed CPU fraction.
    pub cpu_usage: f64,
    /// Task priority (lower is more urgent).
    pub priority: u8,
    /// Task period in nanoseconds, for periodic components.
    pub period_ns: Option<u64>,
}

impl ComponentInfo {
    /// Builds the info record from a descriptor's task spec.
    pub fn from_contract(
        name: &str,
        state: ComponentState,
        task: &TaskSpec,
        cpu_usage: f64,
    ) -> Self {
        Self::from_contract_interned(Rc::from(name), state, task, cpu_usage)
    }

    /// Like [`ComponentInfo::from_contract`] but reusing an already-interned
    /// name, so snapshot rebuilds allocate nothing per component.
    pub fn from_contract_interned(
        name: Rc<str>,
        state: ComponentState,
        task: &TaskSpec,
        cpu_usage: f64,
    ) -> Self {
        ComponentInfo {
            name,
            state,
            cpu: task.cpu(),
            cpu_usage,
            priority: task.priority().0,
            period_ns: task.period().map(|p| p.as_nanos()),
        }
    }

    /// True for periodic components.
    pub fn is_periodic(&self) -> bool {
        self.period_ns.is_some()
    }
}

/// One CPU's admission totals, maintained exactly on every mutation.
#[derive(Debug, Clone, Default)]
struct CpuTotals {
    /// Claims of every admission holder on the CPU.
    claims: ClaimSum,
    /// Claims of the periodic admission holders.
    periodic_claims: ClaimSum,
    /// Number of periodic admission holders.
    periodic: usize,
}

impl CpuTotals {
    fn add(&mut self, c: &ComponentInfo) {
        self.claims.add(c.cpu_usage);
        if c.is_periodic() {
            self.periodic_claims.add(c.cpu_usage);
            self.periodic += 1;
        }
    }

    fn remove(&mut self, c: &ComponentInfo) {
        self.claims.remove(c.cpu_usage);
        if c.is_periodic() {
            self.periodic_claims.remove(c.cpu_usage);
            self.periodic -= 1;
        }
    }
}

/// Snapshot of the whole real-time context at one resolution point.
///
/// The component list is kept sorted by name, so name lookups are binary
/// searches. The DRCR maintains its view by delta: registration and
/// removal go through [`SystemView::insert`] / [`SystemView::remove`],
/// lifecycle flips and contract rewrites through in-place updates, and
/// nothing ever rebuilds the list.
///
/// Per-CPU aggregates ([`SystemView::utilization`],
/// [`SystemView::periodic_utilization`], [`SystemView::periodic_count`])
/// are exact [`ClaimSum`]s adjusted on every mutation, so each query is
/// O(1) and a view maintained by delta reads bit-identically to a fresh
/// [`SystemView::new`] over the same list. A claim outside `[2⁻⁴⁸, 1]` in
/// a hand-built view makes its CPU's utilization NaN, which every
/// admission test rejects. The per-CPU priority-sorted index behind
/// [`SystemView::admitted_sorted`] is computed lazily and dropped by any
/// mutation that could change it.
#[derive(Debug, Clone, Default)]
pub struct SystemView {
    /// Number of CPUs on the kernel.
    pub cpu_count: u32,
    /// Every registered component (all states, including the candidate
    /// under consideration), sorted by name.
    components: Vec<ComponentInfo>,
    totals: Vec<CpuTotals>,
    admitted_index: OnceCell<Vec<Vec<usize>>>,
}

impl PartialEq for SystemView {
    fn eq(&self, other: &Self) -> bool {
        self.cpu_count == other.cpu_count && self.components == other.components
    }
}

impl SystemView {
    /// Builds a snapshot from a component list, sorted stably by name.
    pub fn new(cpu_count: u32, mut components: Vec<ComponentInfo>) -> Self {
        components.sort_by(|a, b| a.name.cmp(&b.name));
        let mut totals = vec![CpuTotals::default(); cpu_count as usize];
        for c in &components {
            tally(&mut totals, c, true);
        }
        SystemView {
            cpu_count,
            components,
            totals,
            admitted_index: OnceCell::new(),
        }
    }

    /// Every component, sorted by name.
    pub fn components(&self) -> &[ComponentInfo] {
        &self.components
    }

    /// Index of the (first) component called `name` (a binary search).
    pub(crate) fn position(&self, name: &str) -> Option<usize> {
        let idx = self.components.partition_point(|c| &*c.name < name);
        (self.components.get(idx).is_some_and(|c| &*c.name == name)).then_some(idx)
    }

    /// Looks up a component by name.
    pub fn component(&self, name: &str) -> Option<&ComponentInfo> {
        self.position(name).map(|idx| &self.components[idx])
    }

    /// Adds a component at its place in name order (after any namesakes).
    pub fn insert(&mut self, info: ComponentInfo) {
        let idx = self.components.partition_point(|c| c.name <= info.name);
        tally(&mut self.totals, &info, true);
        self.components.insert(idx, info);
        self.admitted_index.take();
    }

    /// Removes the (first) component called `name`, returning its record.
    pub fn remove(&mut self, name: &str) -> Option<ComponentInfo> {
        let idx = self.position(name)?;
        let info = self.components.remove(idx);
        tally(&mut self.totals, &info, false);
        self.admitted_index.take();
        Some(info)
    }

    /// In-place lifecycle update. The totals move only when the
    /// admission-holding status flips (activate/deactivate);
    /// suspend↔resume and installed-side churn leave them and the
    /// priority index alone.
    pub(crate) fn set_state_at(&mut self, idx: usize, state: ComponentState) {
        let c = &mut self.components[idx];
        if c.state.holds_admission() != state.holds_admission() {
            tally(&mut self.totals, c, false);
            c.state = state;
            tally(&mut self.totals, c, true);
            self.admitted_index.take();
        } else {
            c.state = state;
        }
    }

    /// Replaces one component's whole info record (a contract rewrite on
    /// a mode switch or claim refinement; the name must not change).
    pub(crate) fn replace_at(&mut self, idx: usize, info: ComponentInfo) {
        debug_assert_eq!(self.components[idx].name, info.name);
        let reindex = self.components[idx].state.holds_admission() || info.state.holds_admission();
        tally(&mut self.totals, &self.components[idx], false);
        tally(&mut self.totals, &info, true);
        self.components[idx] = info;
        if reindex {
            self.admitted_index.take();
        }
    }

    /// Components currently holding an admission reservation on `cpu`
    /// (Active or Suspended).
    pub fn admitted_on(&self, cpu: u32) -> impl Iterator<Item = &ComponentInfo> {
        self.components
            .iter()
            .filter(move |c| c.cpu == cpu && c.state.holds_admission())
    }

    /// Per-CPU index of admission holders sorted by priority (stable: name
    /// order within a priority class), computed once per snapshot on first
    /// use and dropped by any mutation that could change it. Response-time
    /// analysis walks a CPU's admitted task set once per admission check,
    /// so a stale view can never feed the recurrence.
    fn admitted_index(&self) -> &[Vec<usize>] {
        self.admitted_index.get_or_init(|| {
            let mut index = vec![Vec::new(); self.totals.len()];
            for (i, c) in self.components.iter().enumerate() {
                if c.state.holds_admission() {
                    index[c.cpu as usize].push(i);
                }
            }
            for slots in &mut index {
                slots.sort_by_key(|&i| self.components[i].priority);
            }
            index
        })
    }

    /// Components holding an admission reservation on `cpu`, most urgent
    /// (lowest priority value) first; ties keep name order.
    pub fn admitted_sorted(&self, cpu: u32) -> impl Iterator<Item = &ComponentInfo> {
        self.admitted_index()
            .get(cpu as usize)
            .map(|slots| slots.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.components[i])
    }

    fn cpu_totals(&self, cpu: u32) -> Option<&CpuTotals> {
        self.totals.get(cpu as usize)
    }

    /// Total claimed CPU fraction reserved on `cpu`: the correctly rounded
    /// sum of its admission holders' claims.
    pub fn utilization(&self, cpu: u32) -> f64 {
        self.cpu_totals(cpu).map_or(0.0, |t| t.claims.value())
    }

    /// Total claimed CPU fraction of the periodic admission holders on
    /// `cpu` (the rate-monotonic bound's operand).
    pub fn periodic_utilization(&self, cpu: u32) -> f64 {
        self.cpu_totals(cpu)
            .map_or(0.0, |t| t.periodic_claims.value())
    }

    /// Number of admitted periodic components on `cpu`.
    pub fn periodic_count(&self, cpu: u32) -> usize {
        self.cpu_totals(cpu).map_or(0, |t| t.periodic)
    }
}

/// Adds `c`'s claim to (or takes it from) its CPU's totals when `c` holds
/// admission.
fn tally(totals: &mut Vec<CpuTotals>, c: &ComponentInfo, add: bool) {
    if !c.state.holds_admission() {
        return;
    }
    let cpu = c.cpu as usize;
    if cpu >= totals.len() {
        totals.resize(cpu + 1, CpuTotals::default());
    }
    if add {
        totals[cpu].add(c);
    } else {
        totals[cpu].remove(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtos::task::Priority;

    fn info(name: &str, state: ComponentState, cpu: u32, usage: f64) -> ComponentInfo {
        ComponentInfo {
            name: name.into(),
            state,
            cpu,
            cpu_usage: usage,
            priority: 2,
            period_ns: Some(1_000_000),
        }
    }

    #[test]
    fn from_contract_extracts_task_fields() {
        let spec = TaskSpec::Periodic {
            frequency_hz: 1000,
            cpu: 1,
            priority: Priority(3),
        };
        let i = ComponentInfo::from_contract("calc", ComponentState::Unsatisfied, &spec, 0.2);
        assert_eq!(i.cpu, 1);
        assert_eq!(i.priority, 3);
        assert_eq!(i.period_ns, Some(1_000_000));
        assert!(i.is_periodic());
        let spec = TaskSpec::Aperiodic {
            cpu: 0,
            priority: Priority(9),
        };
        let i = ComponentInfo::from_contract("evt", ComponentState::Unsatisfied, &spec, 0.1);
        assert!(!i.is_periodic());
    }

    #[test]
    fn utilization_counts_only_admission_holders_on_cpu() {
        let view = SystemView::new(
            2,
            vec![
                info("a", ComponentState::Active, 0, 0.3),
                info("b", ComponentState::Suspended, 0, 0.2),
                info("c", ComponentState::Unsatisfied, 0, 0.4),
                info("d", ComponentState::Active, 1, 0.5),
            ],
        );
        assert!((view.utilization(0) - 0.5).abs() < 1e-9);
        assert!((view.utilization(1) - 0.5).abs() < 1e-9);
        assert_eq!(view.periodic_count(0), 2);
        assert_eq!(view.admitted_on(0).count(), 2);
        assert!(view.component("c").is_some());
        assert!(view.component("zz").is_none());
    }

    #[test]
    fn cached_totals_match_direct_sums() {
        let view = SystemView::new(
            3,
            vec![
                info("a", ComponentState::Active, 0, 0.125),
                info("b", ComponentState::Active, 0, 0.25),
                info("c", ComponentState::Suspended, 2, 0.0625),
                info("d", ComponentState::Unsatisfied, 2, 0.5),
            ],
        );
        for cpu in 0..3 {
            let direct: ClaimSum = view.admitted_on(cpu).map(|c| c.cpu_usage).collect();
            // Bit-identical, not just approximately equal: both are the
            // exact sum of the same claims, correctly rounded (`+0.0` for
            // an empty CPU, where an in-order `f64` fold gives `-0.0`).
            assert_eq!(view.utilization(cpu).to_bits(), direct.value().to_bits());
            assert_eq!(
                view.periodic_count(cpu),
                view.admitted_on(cpu).filter(|c| c.is_periodic()).count()
            );
        }
        // CPUs beyond the table read as empty.
        assert_eq!(view.utilization(7), 0.0);
        assert_eq!(view.periodic_count(7), 0);
    }

    #[test]
    fn admitted_sorted_orders_by_priority_stable() {
        let mk = |name: &str, state, cpu, prio| ComponentInfo {
            name: name.into(),
            state,
            cpu,
            cpu_usage: 0.1,
            priority: prio,
            period_ns: Some(1_000_000),
        };
        let view = SystemView::new(
            2,
            vec![
                mk("late-urgent", ComponentState::Active, 0, 1),
                mk("slack-a", ComponentState::Active, 0, 5),
                mk("ghost", ComponentState::Unsatisfied, 0, 0),
                mk("slack-b", ComponentState::Suspended, 0, 5),
                mk("other-cpu", ComponentState::Active, 1, 2),
            ],
        );
        let names: Vec<&str> = view.admitted_sorted(0).map(|c| &*c.name).collect();
        // Unsatisfied `ghost` excluded; equal-priority pair keeps list order.
        assert_eq!(names, vec!["late-urgent", "slack-a", "slack-b"]);
        let names: Vec<&str> = view.admitted_sorted(1).map(|c| &*c.name).collect();
        assert_eq!(names, vec!["other-cpu"]);
        assert_eq!(view.admitted_sorted(7).count(), 0);
    }

    #[test]
    fn in_place_flip_keeps_totals_bit_identical_to_fresh_build() {
        let mut view = SystemView::new(
            2,
            vec![
                info("a", ComponentState::Active, 0, 0.125),
                info("b", ComponentState::Unsatisfied, 0, 0.25),
                info("c", ComponentState::Active, 1, 0.0625),
            ],
        );
        // Prime the caches, then flip `b` active in place.
        assert!((view.utilization(0) - 0.125).abs() < 1e-9);
        assert_eq!(view.admitted_sorted(0).count(), 1);
        view.set_state_at(1, ComponentState::Active);
        let fresh = SystemView::new(2, view.components.clone());
        for cpu in 0..2 {
            assert_eq!(
                view.utilization(cpu).to_bits(),
                fresh.utilization(cpu).to_bits()
            );
            assert_eq!(view.periodic_count(cpu), fresh.periodic_count(cpu));
            let a: Vec<&str> = view.admitted_sorted(cpu).map(|c| &*c.name).collect();
            let b: Vec<&str> = fresh.admitted_sorted(cpu).map(|c| &*c.name).collect();
            assert_eq!(a, b);
        }
        // Suspend keeps admission: the caches survive untouched and stay
        // correct (Suspended still holds admission).
        view.set_state_at(1, ComponentState::Suspended);
        assert_eq!(
            view.utilization(0).to_bits(),
            fresh.utilization(0).to_bits()
        );
        assert_eq!(view.admitted_sorted(0).count(), 2);
    }

    #[test]
    fn clone_and_eq_ignore_the_totals_cache() {
        let a = SystemView::new(1, vec![info("a", ComponentState::Active, 0, 0.5)]);
        let b = a.clone();
        // Prime only one side's cache; equality is still value equality.
        assert!((a.utilization(0) - 0.5).abs() < 1e-9);
        assert_eq!(a, b);
        assert!((b.utilization(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn new_sorts_by_name_and_lookups_find_every_component() {
        let view = SystemView::new(
            1,
            vec![
                info("m", ComponentState::Active, 0, 0.1),
                info("b", ComponentState::Active, 0, 0.1),
                info("x", ComponentState::Active, 0, 0.1),
            ],
        );
        let names: Vec<&str> = view.components().iter().map(|c| &*c.name).collect();
        assert_eq!(names, vec!["b", "m", "x"]);
        for name in ["b", "m", "x"] {
            assert_eq!(view.component(name).map(|c| &*c.name), Some(name));
        }
        assert!(view.component("a").is_none() && view.component("z").is_none());
    }

    #[test]
    fn ten_tenths_fill_a_cpu_exactly() {
        let view = SystemView::new(
            1,
            (0..10)
                .map(|i| info(&format!("t{i}"), ComponentState::Active, 0, 0.1))
                .collect(),
        );
        assert_eq!(view.utilization(0), 1.0);
        assert_eq!(view.periodic_utilization(0), 1.0);
    }

    #[test]
    fn an_out_of_domain_claim_makes_its_cpu_nan_until_it_leaves() {
        for bad in [f64::NAN, 0.0, -0.5, 1.5, crate::model::MIN_CPU_USAGE / 2.0] {
            let mut view = SystemView::new(
                2,
                vec![
                    info("good", ComponentState::Active, 0, 0.25),
                    info("sick", ComponentState::Active, 0, bad),
                    info("other", ComponentState::Active, 1, 0.5),
                ],
            );
            assert!(view.utilization(0).is_nan(), "{bad}");
            assert!(view.periodic_utilization(0).is_nan(), "{bad}");
            assert_eq!(view.utilization(1), 0.5, "{bad}: other CPUs unaffected");
            let idx = view.position("sick").unwrap();
            view.set_state_at(idx, ComponentState::Unsatisfied);
            assert_eq!(view.utilization(0), 0.25, "{bad}");
            view.set_state_at(idx, ComponentState::Active);
            assert!(view.utilization(0).is_nan(), "{bad}");
            view.remove("sick");
            assert_eq!(view.utilization(0), 0.25, "{bad}");
        }
    }

    /// Randomized: inserts, removals, state flips and record rewrites keep
    /// every aggregate bit-identical to a fresh build over the same list,
    /// invalid claims included.
    #[test]
    fn delta_maintenance_matches_a_fresh_build() {
        use crate::model::MIN_CPU_USAGE;
        const STATES: [ComponentState; 5] = [
            ComponentState::Unsatisfied,
            ComponentState::Active,
            ComponentState::Suspended,
            ComponentState::Disabled,
            ComponentState::Active,
        ];
        let mut rng = rtos::rng::SimRng::from_seed(0x51E7);
        for case in 0..64 {
            let mut view = SystemView::new(2, Vec::new());
            let random_info = |rng: &mut rtos::rng::SimRng, name: &str| {
                let usage = match rng.uniform_u64(0, 8) {
                    0 => [f64::NAN, 0.0, MIN_CPU_USAGE / 2.0, 1.25][rng.uniform_u64(0, 4) as usize],
                    1 => MIN_CPU_USAGE,
                    2..=4 => 0.008 * rng.uniform_range(0.8, 1.2),
                    _ => rng.uniform_range(0.01, 1.0),
                };
                ComponentInfo {
                    name: name.into(),
                    state: STATES[rng.uniform_u64(0, 5) as usize],
                    // CPU 2 lies beyond `cpu_count`: the totals grow.
                    cpu: rng.uniform_u64(0, 3) as u32,
                    cpu_usage: usage,
                    priority: rng.uniform_u64(0, 4) as u8,
                    period_ns: rng.chance(0.7).then_some(1_000_000),
                }
            };
            for step in 0..rng.uniform_u64(1, 80) {
                let name = format!("c{}", rng.uniform_u64(0, 12));
                match (view.position(&name), rng.uniform_u64(0, 3)) {
                    (None, _) => view.insert(random_info(&mut rng, &name)),
                    (Some(_), 0) => {
                        view.remove(&name).unwrap();
                    }
                    (Some(idx), 1) => {
                        view.set_state_at(idx, STATES[rng.uniform_u64(0, 5) as usize]);
                    }
                    (Some(idx), _) => view.replace_at(idx, random_info(&mut rng, &name)),
                }
                assert!(
                    view.components().windows(2).all(|w| w[0].name <= w[1].name),
                    "case {case} step {step}: name order"
                );
                let fresh = SystemView::new(2, view.components().to_vec());
                for cpu in 0..4 {
                    let at = format!("case {case} step {step} cpu {cpu}");
                    assert_eq!(
                        view.utilization(cpu).to_bits(),
                        fresh.utilization(cpu).to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        view.periodic_utilization(cpu).to_bits(),
                        fresh.periodic_utilization(cpu).to_bits(),
                        "{at}"
                    );
                    assert_eq!(view.periodic_count(cpu), fresh.periodic_count(cpu), "{at}");
                    let a: Vec<&str> = view.admitted_sorted(cpu).map(|c| &*c.name).collect();
                    let b: Vec<&str> = fresh.admitted_sorted(cpu).map(|c| &*c.name).collect();
                    assert_eq!(a, b, "{at}");
                }
            }
        }
    }
}

//! The component subsystem: everything that evolves over simulated time
//! behind one trait, plus the discrete-event loop that advances it.
//!
//! A [`Component`] either *ticks* on its own clock (`next_tick` returns
//! the next cycle it wants to advance — the per-core machines) or is
//! *event-driven* (it fires when the global queue pops an event routed
//! to it — the timer/epoch/IRQ sources, the device-completion bank, and
//! the DMA device models in [`super::device`]). The engine repeatedly
//! picks the global earliest action (lowest-clock busy core vs. queue
//! head, events winning ties) and executes it.
//!
//! Per-core clock dividers live in the core state: a core at divider
//! `D` charges every cycle `D`-fold, modelling a core at `1/D` of the
//! reference clock (the seed of big.LITTLE support).

use super::{dispatch, interrupts, Engine, EngineCore, EventKind};
use crate::error::EngineError;
use crate::faults::FaultInjector;
use crate::scheduler::{SchedEvent, Scheduler};
use schedtask_obs::{FaultKind, ObsEvent};

/// One time-evolving piece of the simulated machine.
///
/// `Send` because the engine that owns the component set is moved onto
/// sweep worker threads.
pub(crate) trait Component: Send + std::fmt::Debug {
    /// Stable snake_case name, used in diagnostics.
    fn name(&self) -> &'static str;

    /// The next absolute cycle at which this component wants a
    /// time-driven tick, or `None` when it is idle or purely
    /// event-driven (the default).
    fn next_tick(&self, ctx: &EngineCore) -> Option<u64> {
        let _ = ctx;
        None
    }

    /// Time-driven advance. Called with `ctx.now` equal to the value
    /// this component returned from [`Component::next_tick`].
    fn tick(&mut self, ctx: &mut EngineCore, sched: &mut dyn Scheduler) -> Result<(), EngineError> {
        let _ = (ctx, sched);
        Err(EngineError::StateCorruption {
            detail: format!("component {} does not take time-driven ticks", self.name()),
        })
    }

    /// Event-driven advance: the queue popped `kind`, routed here.
    fn handle_event(
        &mut self,
        ctx: &mut EngineCore,
        sched: &mut dyn Scheduler,
        kind: EventKind,
    ) -> Result<(), EngineError> {
        let _ = (ctx, sched);
        Err(EngineError::StateCorruption {
            detail: format!(
                "component {} received unroutable event {kind:?}",
                self.name()
            ),
        })
    }

    /// Seeds the component's recurring event stream before the run
    /// starts. Runs in component index order, which fixes queue
    /// sequence numbers deterministically.
    fn prime(&mut self, ctx: &mut EngineCore) {
        let _ = ctx;
    }
}

/// Routing table from [`EventKind`] to the owning component's index in
/// [`Engine::components`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComponentIndex {
    timer: usize,
    epoch: usize,
    irq: usize,
    bank: usize,
    dma_base: usize,
}

impl ComponentIndex {
    fn route(&self, kind: EventKind) -> usize {
        match kind {
            EventKind::TimerTick { .. } => self.timer,
            EventKind::Epoch => self.epoch,
            EventKind::ExternalIrq { .. } => self.irq,
            EventKind::DeviceComplete { .. } => self.bank,
            EventKind::DeviceTick { device } => self.dma_base + device,
        }
    }
}

/// Builds the deterministic component set for `core`: per-core machines
/// (component index == core index), timer source, epoch source, IRQ
/// source, device-completion bank, then one DMA model per configured
/// device.
pub(super) fn build_components(core: &EngineCore) -> (Vec<Box<dyn Component>>, ComponentIndex) {
    let n = core.num_cores();
    let mut components: Vec<Box<dyn Component>> =
        Vec::with_capacity(n + 4 + core.cfg.devices.len());
    for c in 0..n {
        components.push(Box::new(CoreMachine { core: c }));
    }
    let timer = components.len();
    components.push(Box::new(TimerSource));
    let epoch = components.len();
    components.push(Box::new(EpochSource));
    let irq = components.len();
    components.push(Box::new(IrqSource));
    let bank = components.len();
    components.push(Box::new(DeviceBank));
    let dma_base = components.len();
    for (i, dev) in core.cfg.devices.iter().enumerate() {
        components.push(Box::new(super::device::DmaDevice::new(
            i,
            *dev,
            core.cfg.seed,
        )));
    }
    (
        components,
        ComponentIndex {
            timer,
            epoch,
            irq,
            bank,
            dma_base,
        },
    )
}

/// One simulated core as a component: ticks whenever it is busy, at its
/// private clock.
#[derive(Debug)]
struct CoreMachine {
    core: usize,
}

impl Component for CoreMachine {
    fn name(&self) -> &'static str {
        "core_machine"
    }
    fn next_tick(&self, ctx: &EngineCore) -> Option<u64> {
        let cs = &ctx.cores[self.core];
        (!cs.idle).then_some(cs.clock)
    }
    fn tick(&mut self, ctx: &mut EngineCore, sched: &mut dyn Scheduler) -> Result<(), EngineError> {
        dispatch::step_core(ctx, sched, self.core)
    }
}

/// The per-core periodic timer interrupt stream.
#[derive(Debug)]
struct TimerSource;

impl Component for TimerSource {
    fn name(&self) -> &'static str {
        "timer_source"
    }
    fn prime(&mut self, ctx: &mut EngineCore) {
        let tick = ctx.cfg.timer_tick_cycles;
        if tick > 0 {
            for c in 0..ctx.num_cores() {
                let stagger = tick / ctx.num_cores() as u64 * c as u64;
                ctx.schedule_event(tick + stagger, EventKind::TimerTick { core: c });
            }
        }
    }
    fn handle_event(
        &mut self,
        ctx: &mut EngineCore,
        _sched: &mut dyn Scheduler,
        kind: EventKind,
    ) -> Result<(), EngineError> {
        let EventKind::TimerTick { core } = kind else {
            return Err(EngineError::StateCorruption {
                detail: format!("timer source received {kind:?}"),
            });
        };
        let at = ctx.now;
        interrupts::deliver_irq(ctx, core, "timer_irq", None, at);
        ctx.schedule_event(
            at + ctx.cfg.timer_tick_cycles,
            EventKind::TimerTick { core },
        );
        Ok(())
    }
}

/// The scheduler's TAlloc epoch boundary.
#[derive(Debug)]
struct EpochSource;

impl Component for EpochSource {
    fn name(&self) -> &'static str {
        "epoch_source"
    }
    fn prime(&mut self, ctx: &mut EngineCore) {
        ctx.schedule_event(ctx.cfg.epoch_cycles, EventKind::Epoch);
    }
    fn handle_event(
        &mut self,
        ctx: &mut EngineCore,
        sched: &mut dyn Scheduler,
        kind: EventKind,
    ) -> Result<(), EngineError> {
        if !matches!(kind, EventKind::Epoch) {
            return Err(EngineError::StateCorruption {
                detail: format!("epoch source received {kind:?}"),
            });
        }
        let at = ctx.now;
        ctx.obs.emit(|| ObsEvent::EpochStart { at });
        let overhead = sched.overhead_for(ctx, SchedEvent::EpochAlloc, None);
        ctx.charge_sched_overhead(0, overhead);
        sched.on_epoch(ctx)?;
        if ctx.cfg.collect_epoch_breakups {
            ctx.snapshot_epoch_breakup();
        }
        ctx.schedule_event(at + ctx.cfg.epoch_cycles, EventKind::Epoch);
        Ok(())
    }
}

/// Each benchmark's spontaneous external-interrupt stream.
#[derive(Debug)]
struct IrqSource;

impl Component for IrqSource {
    fn name(&self) -> &'static str {
        "irq_source"
    }
    fn prime(&mut self, ctx: &mut EngineCore) {
        for bench in 0..ctx.instances.len() {
            if ctx.instances[bench].spec.spontaneous_irq.is_some() {
                let interval = ctx.irq_rate_interval[bench];
                ctx.schedule_event(interval, EventKind::ExternalIrq { bench });
            }
        }
    }
    fn handle_event(
        &mut self,
        ctx: &mut EngineCore,
        sched: &mut dyn Scheduler,
        kind: EventKind,
    ) -> Result<(), EngineError> {
        let EventKind::ExternalIrq { bench } = kind else {
            return Err(EngineError::StateCorruption {
                detail: format!("irq source received {kind:?}"),
            });
        };
        let at = ctx.now;
        let Some((irq_name, _)) = ctx.instances[bench].spec.spontaneous_irq else {
            return Err(EngineError::StateCorruption {
                detail: format!(
                    "external irq scheduled for benchmark {bench} with no spontaneous rate"
                ),
            });
        };
        let irq_id = ctx
            .catalog
            .try_interrupt(irq_name)
            .ok_or_else(|| EngineError::UnknownService {
                kind: "interrupt",
                name: irq_name.to_string(),
            })?
            .irq;
        let target = sched.route_interrupt(ctx, irq_id);
        ctx.obs.emit(|| ObsEvent::IrqRouted {
            at,
            irq: irq_id,
            core: target.0 as u32,
        });
        interrupts::deliver_irq(ctx, target.0, irq_name, None, at);
        // Re-arm with ±50 % jitter.
        let base = ctx.irq_rate_interval[bench];
        let jitter = {
            use rand::Rng;
            ctx.rng.gen_range(base / 2..=base + base / 2)
        };
        ctx.schedule_event(at + jitter.max(1), EventKind::ExternalIrq { bench });
        Ok(())
    }
}

/// The device-completion bank: turns blocked-I/O completion events into
/// routed interrupts carrying the waiting SuperFunction.
#[derive(Debug)]
struct DeviceBank;

impl Component for DeviceBank {
    fn name(&self) -> &'static str {
        "device_bank"
    }
    fn handle_event(
        &mut self,
        ctx: &mut EngineCore,
        sched: &mut dyn Scheduler,
        kind: EventKind,
    ) -> Result<(), EngineError> {
        let EventKind::DeviceComplete { device, waiter } = kind else {
            return Err(EngineError::StateCorruption {
                detail: format!("device bank received {kind:?}"),
            });
        };
        let at = ctx.now;
        let irq_name = ctx.catalog.interrupt_for_device(device).name;
        let irq_id = ctx.catalog.interrupt_for_device(device).irq;
        let target = sched.route_completion(ctx, irq_id, waiter);
        ctx.obs.emit(|| ObsEvent::IrqRouted {
            at,
            irq: irq_id,
            core: target.0 as u32,
        });
        interrupts::deliver_irq(ctx, target.0, irq_name, Some(waiter), at);
        Ok(())
    }
}

impl Engine {
    /// Runs the discrete-event loop to completion (until drained or a
    /// stop condition from [`Engine::post_step`]).
    pub(super) fn drive(&mut self) -> Result<(), EngineError> {
        while self.step_once()? {
            if self.post_step()? {
                break;
            }
        }
        Ok(())
    }

    /// One micro-step: pick the global earliest action — the
    /// lowest-(clock, index) busy component tick or the queue head, the
    /// queue winning ties — and execute it. Returns `false` when no busy
    /// component and no queued event remain: the simulation is drained.
    fn step_once(&mut self) -> Result<bool, EngineError> {
        let mut comp_next: Option<(u64, usize)> = None;
        for (i, comp) in self.components.iter().enumerate() {
            if let Some(t) = comp.next_tick(&self.core) {
                if comp_next.is_none_or(|(bt, bi)| (t, i) < (bt, bi)) {
                    comp_next = Some((t, i));
                }
            }
        }
        let event_next = self.core.events.peek().map(|e| e.time);
        match (comp_next, event_next) {
            (None, None) => return Ok(false),
            (Some((ct, i)), et) if et.is_none_or(|et| ct < et) => {
                self.core.now = ct;
                self.components[i].tick(&mut self.core, self.scheduler.as_mut())?;
            }
            _ => self.process_next_event()?,
        }
        Ok(true)
    }

    /// Pops the earliest event and routes it to the owning component,
    /// wrapped in the engine-level fault-injection checks (dropped and
    /// spurious interrupts), which stay here so every component sees the
    /// same injector stream the monolithic engine produced.
    fn process_next_event(&mut self) -> Result<(), EngineError> {
        let ev = self
            .core
            .events
            .pop()
            .ok_or(EngineError::EventQueueUnderflow)?;
        self.core.now = ev.time;

        // Fault injection: the interrupt carried by this event is lost.
        // A dropped event is re-raised after the modelled retry delay
        // (hardware timeout / software re-poll), so wakeups are delayed —
        // never lost — and slowdown stays bounded.
        if !matches!(ev.kind, EventKind::Epoch) {
            if let Some(delay) = self
                .core
                .injector
                .as_mut()
                .and_then(FaultInjector::drop_irq)
            {
                self.core.schedule_event(ev.time + delay, ev.kind);
                self.core.obs.emit(|| ObsEvent::FaultInjected {
                    at: ev.time,
                    kind: FaultKind::DroppedIrq,
                });
                return Ok(());
            }
        }

        let idx = self.comp_idx.route(ev.kind);
        self.components[idx].handle_event(&mut self.core, self.scheduler.as_mut(), ev.kind)?;

        // Fault injection: a spurious interrupt (no waiting SuperFunction)
        // lands on a deterministic-random core.
        let num_cores = self.core.cores.len();
        let spurious = self
            .core
            .injector
            .as_mut()
            .and_then(|inj| inj.spurious_irq().then(|| inj.spurious_target(num_cores)));
        if let Some(target) = spurious {
            let at = self.core.now;
            self.core.obs.emit(|| ObsEvent::FaultInjected {
                at,
                kind: FaultKind::SpuriousIrq,
            });
            interrupts::deliver_irq(&mut self.core, target, "timer_irq", None, at);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Engine, WorkloadSpec};
    use crate::config::{DeviceModelConfig, EngineConfig};
    use crate::scheduler::GlobalFifoScheduler;
    use schedtask_workload::{BenchmarkKind, DeviceKind};

    fn engine_with(cfg: EngineConfig) -> Engine {
        Engine::new(
            cfg,
            &WorkloadSpec::single(BenchmarkKind::Find, 0.5),
            Box::new(GlobalFifoScheduler::new()),
        )
        .expect("engine builds")
    }

    fn base_cfg() -> EngineConfig {
        EngineConfig::fast()
            .with_system(schedtask_sim::SystemConfig::table2().with_cores(2))
            .with_max_instructions(60_000)
    }

    fn dev(kind: DeviceKind, period_cycles: u64) -> DeviceModelConfig {
        DeviceModelConfig {
            kind,
            period_cycles,
        }
    }

    fn run_stats(cfg: EngineConfig) -> crate::stats::SimStats {
        engine_with(cfg).run().expect("run succeeds").clone()
    }

    #[test]
    fn component_set_matches_machine_shape() {
        let engine = engine_with(base_cfg().with_device(dev(DeviceKind::Network, 40_000)));
        // 2 cores + timer + epoch + irq + bank + 1 device.
        assert_eq!(engine.components.len(), 2 + 4 + 1);
        let names: Vec<&str> = engine.components.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "core_machine",
                "core_machine",
                "timer_source",
                "epoch_source",
                "irq_source",
                "device_bank",
                "dma_device"
            ]
        );
    }

    #[test]
    fn clock_dividers_slow_the_core() {
        let cfg = base_cfg().with_core_clock_dividers(vec![1, 4]);
        let slow = run_stats(cfg);
        let even = run_stats(base_cfg());
        assert!(
            slow.final_cycle > even.final_cycle,
            "a divided core must stretch wall-clock: {} vs {}",
            slow.final_cycle,
            even.final_cycle
        );
    }

    #[test]
    fn device_component_injects_interrupt_traffic() {
        let quiet = run_stats(base_cfg());
        let noisy = run_stats(base_cfg().with_device(dev(DeviceKind::Network, 25_000)));
        assert!(
            noisy.interrupts_delivered > quiet.interrupts_delivered,
            "device model must add interrupts: {} vs {}",
            noisy.interrupts_delivered,
            quiet.interrupts_delivered
        );
    }
}

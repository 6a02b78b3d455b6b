//! Counter-model integration: the §3.1 counters and the §3.3 performance
//! model validated against observed behaviour of the full simulator.

use memscale::perf_model::PerfModel;
use memscale::profile::AppSample;
use memscale_mc::MemoryController;
use memscale_types::address::PhysAddr;
use memscale_types::config::SystemConfig;
use memscale_types::freq::MemFreq;
use memscale_types::time::Picos;
use memscale_workloads::Mix;

/// Drives one mix's traces through the MC standalone (no policy) for a
/// window and returns (controller, per-core samples, window).
fn drive(
    mix_name: &str,
    freq: MemFreq,
    window: Picos,
) -> (MemoryController, Vec<AppSample>, Picos) {
    drive_on(&SystemConfig::default(), mix_name, freq, window)
}

/// Same as [`drive`] but on an explicit system configuration (used to
/// exercise the non-DDR3 generations).
fn drive_on(
    sys: &SystemConfig,
    mix_name: &str,
    freq: MemFreq,
    window: Picos,
) -> (MemoryController, Vec<AppSample>, Picos) {
    let sys = sys.clone();
    let mix = Mix::by_name(mix_name).unwrap();
    let mut traces = mix.traces(16, 1 << 24, 7);
    let mut mc = MemoryController::new(&sys, freq);
    mc.set_event_recording(true);
    let mut cores: Vec<memscale_cpu::InOrderCore> = (0..16)
        .map(|i| {
            memscale_cpu::InOrderCore::new(i.into(), traces[i].profile().base_cpi, sys.cpu.cycle())
        })
        .collect();
    let mut heap = std::collections::BinaryHeap::new();
    let mut pending: Vec<Option<memscale_workloads::MissEvent>> = vec![None; 16];
    let mut computing = [true; 16];
    for c in 0..16 {
        let ev = traces[c].next_miss();
        let done = cores[c].start_compute(Picos::ZERO, ev.gap_instructions);
        pending[c] = Some(ev);
        heap.push(std::cmp::Reverse((done, c)));
    }
    while let Some(&std::cmp::Reverse((t, c))) = heap.peek() {
        if t > window {
            break;
        }
        heap.pop();
        if computing[c] {
            cores[c].finish_compute(t);
            let ev = pending[c].take().unwrap();
            if let Some(wb) = ev.writeback {
                mc.writeback(wb, t);
            }
            let r = mc.read(ev.addr, t);
            cores[c].start_memory_wait(t);
            computing[c] = false;
            heap.push(std::cmp::Reverse((r.completion, c)));
        } else {
            cores[c].finish_memory_wait(t);
            let ev = traces[c].next_miss();
            let done = cores[c].start_compute(t, ev.gap_instructions);
            pending[c] = Some(ev);
            computing[c] = true;
            heap.push(std::cmp::Reverse((done, c)));
        }
    }
    mc.sync(window);
    let apps = cores
        .iter()
        .map(|c| {
            let s = c.counters_at(window);
            AppSample {
                tic: s.tic,
                tlm: s.tlm,
            }
        })
        .collect();
    (mc, apps, window)
}

#[test]
fn counters_accumulate_consistently() {
    let (mc, apps, _) = drive("MID1", MemFreq::F800, Picos::from_ms(1));
    let c = mc.counters();
    // Every read was classified exactly once.
    assert_eq!(c.row_classified(), c.reads + c.writes);
    // BTC counts only reads.
    assert_eq!(c.btc, c.reads);
    assert_eq!(c.ctc, c.reads);
    // Every ACT opened and closed a page.
    assert_eq!(c.pocc, c.obmc + c.cbmc);
    // Core misses equal controller reads.
    let total_misses: u64 = apps.iter().map(|a| a.tlm).sum();
    assert_eq!(total_misses, c.reads);
}

#[test]
fn closed_page_dominates_row_outcomes() {
    // §3.1: with closed-page management, the closed-bank miss is the most
    // common case for multiprogrammed workloads.
    let (mc, _, _) = drive("MID1", MemFreq::F800, Picos::from_ms(1));
    let c = mc.counters();
    assert!(
        c.cbmc as f64 > 0.9 * c.row_classified() as f64,
        "closed-miss fraction {:.3}",
        c.cbmc as f64 / c.row_classified() as f64
    );
}

#[test]
fn perf_model_predicts_measured_latency_within_tolerance() {
    // Eq 9's E[TPIMem] should track the observed mean read latency.
    for mix in ["ILP2", "MID1", "MEM1"] {
        let (mc, _, _) = drive(mix, MemFreq::F800, Picos::from_ms(1));
        let sys = SystemConfig::default();
        let model = PerfModel::new(&sys.timing, &sys.cpu);
        let predicted = model.tpi_mem(mc.counters(), MemFreq::F800);
        let measured = mc
            .counters()
            .mean_read_latency()
            .expect("reads happened")
            .as_secs_f64();
        let ratio = predicted / measured;
        // The transfer-blocking construction overestimates under queueing
        // (the paper corrects residual error through slack); accept 0.8-2x.
        assert!(
            (0.8..2.0).contains(&ratio),
            "{mix}: predicted {predicted:.2e} vs measured {measured:.2e} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn dilation_prediction_tracks_actual_slowdown() {
    // Predict MID1's CPI at 400 MHz from an 800 MHz profile, then actually
    // run at 400 MHz and compare per-core CPIs.
    let window = Picos::from_ms(1);
    let (mc800, apps800, _) = drive("MID1", MemFreq::F800, window);
    let (_, apps400, _) = drive("MID1", MemFreq::F400, window);
    let sys = SystemConfig::default();
    let model = PerfModel::new(&sys.timing, &sys.cpu);
    let profile = memscale::profile::EpochProfile {
        window,
        freq: MemFreq::F800,
        apps: apps800.clone(),
        mc: *mc800.counters(),
        activity: memscale_power::ActivitySummary::default(),
    };
    for (core, sample400) in apps400.iter().enumerate() {
        let predicted = model.predict_cpi(&profile, core, MemFreq::F400).unwrap();
        // Actual CPI at 400 from instruction throughput.
        let actual = window.as_secs_f64() * 4e9 / sample400.tic as f64;
        let err = (predicted - actual).abs() / actual;
        assert!(
            err < 0.10,
            "core {core}: predicted {predicted:.3} vs actual {actual:.3} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn epdc_counts_only_under_powerdown_policies() {
    let sys = SystemConfig::default();
    let mut mc = MemoryController::new(&sys, MemFreq::F800);
    mc.read(PhysAddr::from_cache_line(0), Picos::ZERO);
    mc.read(PhysAddr::from_cache_line(0), Picos::from_ms(1));
    assert_eq!(mc.counters().epdc, 0, "no powerdown policy, no exits");

    let mut mc = MemoryController::new(&sys, MemFreq::F800);
    mc.set_auto_power_down(Some(memscale_dram::PowerDownMode::Fast));
    // Immediate-entry semantics: both accesses find the rank powered down.
    mc.read(PhysAddr::from_cache_line(0), Picos::ZERO);
    mc.read(PhysAddr::from_cache_line(0), Picos::from_ms(1));
    assert_eq!(mc.counters().epdc, 2);
}

#[test]
fn standalone_controller_stream_is_ddr3_conformant() {
    // Replay the MC's recorded command stream through the independent DDR3
    // conformance checker: a heavy MEM mix must audit clean.
    let (mut mc, _, _) = drive("MEM1", MemFreq::F800, Picos::from_ms(1));
    let events = mc.drain_command_events();
    let sys = SystemConfig::default();
    let t = &sys.topology;
    let mut auditor = memscale_audit::ProtocolAuditor::new(
        &sys.timing,
        t.channels as usize,
        t.ranks_per_channel() as usize,
        t.banks_per_rank as usize,
        MemFreq::F800,
    );
    auditor.ingest(&events);
    let report = auditor.finalize();
    assert!(report.is_clean(), "{report}");
    assert!(report.commands_checked > 1_000);
}

#[test]
fn standalone_controller_stream_is_ddr4_conformant() {
    // The same standalone replay on the DDR4 device model: sixteen banks in
    // four groups, audited against the DDR4 rule pack (tCCD_L / tRRD_L).
    use memscale_types::config::MemGeneration;
    let sys = SystemConfig::for_generation(MemGeneration::Ddr4);
    let (mut mc, _, _) = drive_on(&sys, "MEM1", MemFreq::F800, Picos::from_ms(1));
    let events = mc.drain_command_events();
    let t = &sys.topology;
    let mut auditor = memscale_audit::ProtocolAuditor::new(
        &sys.timing,
        t.channels as usize,
        t.ranks_per_channel() as usize,
        t.banks_per_rank as usize,
        MemFreq::F800,
    );
    auditor.ingest(&events);
    let report = auditor.finalize();
    assert!(report.is_clean(), "{report}");
    assert!(report.commands_checked > 1_000);
}

#[test]
fn queue_counters_grow_with_intensity() {
    let (ilp, _, _) = drive("ILP2", MemFreq::F800, Picos::from_ms(1));
    let (mem, _, _) = drive("MEM1", MemFreq::F800, Picos::from_ms(1));
    assert!(
        mem.counters().channel_queue_avg() > ilp.counters().channel_queue_avg(),
        "MEM {:.3} vs ILP {:.3}",
        mem.counters().channel_queue_avg(),
        ilp.counters().channel_queue_avg()
    );
    assert!(mem.counters().bank_queue_avg() >= ilp.counters().bank_queue_avg());
}

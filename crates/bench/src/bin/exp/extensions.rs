//! Extensions: experiments the paper proposes, samples, or leaves as
//! future work, run end to end on the simulated substrate.

use fj_bench::table::{fmt, TablePrinter};
use fj_bench::{standard_fleet, EXPERIMENT_SEED};
use fj_core::{average_models, builtin_registry, InterfaceClass};
use fj_datasheets::{
    analysis::trend_strength, efficiency_trend, extract, generate_corpus, CorpusConfig,
    ExtractionQuality, ParserConfig,
};
use fj_hypnos::{algorithm, HypnosConfig};
use fj_isp::stats::psu_snapshot;
use fj_isp::Fleet;
use fj_netpowerbench::{
    compare_to_reference, derive_linecard, Derivation, DerivationConfig, LinecardDerivationConfig,
};
use fj_psu::single_psu_savings;
use fj_router_sim::ModularRouter;
use fj_snmp::mib::{psu_efficiencies, snapshot};
use fj_units::{SimDuration, SimInstant};
use fj_zoo::{Contributor, ModelEntry, Zoo};

use crate::collect;
use crate::report::Report;
use crate::sections::sleeping_month;

/// Extension — modular chassis and the `P_linecard` term (§4.3 names this
/// as future work; here it is, end to end).
///
/// An ASR-9010-like chassis with two card types is characterised with the
/// Bare/Inserted(n)/Active(n) recipe; the derived per-card parameters are
/// compared against the programmed ground truth.
pub fn ext_modular(r: &mut Report) {
    r.header("Extension", "P_linecard derivation on a modular chassis");

    let mut router = ModularRouter::asr9010_like(0.0);
    println!(
        "\nDUT: ASR-9010-like, {} slots, bare chassis {:.0}\n",
        router.slot_count(),
        router.wall_power()
    );

    let t = TablePrinter::new(&[16, 14, 12, 12, 12, 7]);
    t.header(&["card type", "term", "truth W", "derived W", "R²", "shape"]);
    for card in ["A9K-24X10GE", "A9K-8X100GE"] {
        let truth = *router.truth().lookup_card(card).expect("registered");
        let config = LinecardDerivationConfig::new(card);
        let derived = derive_linecard(&mut router, &config, EXPERIMENT_SEED).expect("derivation");
        t.row(&[
            card.into(),
            "P_inserted".into(),
            fmt(truth.p_inserted.as_f64(), 1),
            fmt(derived.params.p_inserted.as_f64(), 1),
            fmt(derived.inserted_r2, 4),
            r.check(
                card,
                "P_inserted",
                truth.p_inserted.as_f64(),
                derived.params.p_inserted.as_f64(),
                0.02,
                0.5,
            )
            .into(),
        ]);
        t.row(&[
            String::new(),
            "P_active".into(),
            fmt(truth.p_active.as_f64(), 1),
            fmt(derived.params.p_active.as_f64(), 1),
            fmt(derived.active_r2, 4),
            r.check(
                card,
                "P_active",
                truth.p_active.as_f64(),
                derived.params.p_active.as_f64(),
                0.02,
                0.8,
            )
            .into(),
        ]);
    }

    println!(
        "\nOtten et al. (cited in §2) found linecard power *dominates* for\n\
         their routers; with these parameters a fully-active 8-slot chassis\n\
         draws {:.0} W of which only {:.0} W is the chassis itself —\n\
         consistent with their conclusion that counting links is a poor\n\
         proxy for energy.",
        350.0 + 8.0 * 300.0,
        350.0
    );
}

/// Flips every PSU but slot 0 of every router to hot standby; returns
/// how many were converted.
fn actuate_hot_standby(fleet: &mut Fleet) -> usize {
    let mut converted = 0;
    for router in &mut fleet.routers {
        for slot in 1..router.sim.psu_count() {
            if router.sim.set_psu_hot_standby(slot, true).is_ok() {
                converted += 1;
            }
        }
    }
    converted
}

/// Actuates fleet-wide hot standby on the standard fleet; returns the
/// PSUs converted and the fleet wall power before and after, in watts.
fn measure_hot_standby() -> (usize, f64, f64) {
    let mut fleet = standard_fleet();
    let before = fleet.total_wall_power_w();
    let converted = actuate_hot_standby(&mut fleet);
    (converted, before, fleet.total_wall_power_w())
}

/// Extension — hot-standby PSUs (§9.4's proposal, made actionable).
///
/// The paper's §9.3.4 estimate assumes the second PSU can be made
/// lossless while staying available; private correspondence with power-
/// electronics researchers suggested "there does not seem to be any
/// technical limitation". The simulator implements the mode (a 2 W
/// housekeeping draw per standby unit), so the what-if becomes a
/// measurement: concentrate every router's load on one PSU, keep the
/// other online in standby, and compare wall power across the fleet.
pub fn ext_hot_standby(r: &mut Report) {
    r.header("Extension", "fleet-wide hot-standby PSU what-if, actuated");

    // Estimate first (the §9.3.4 method on the sensor snapshot).
    let estimate = single_psu_savings(&psu_snapshot(&standard_fleet()));

    // Then actuate: keep slot 0 carrying, everything else goes standby.
    let (converted, before, after) = measure_hot_standby();
    let realised = before - after;

    let t = TablePrinter::new(&[34, 14]);
    t.header(&["quantity", "value"]);
    t.row(&["PSUs moved to hot standby".into(), converted.to_string()]);
    t.row(&["fleet power before (kW)".into(), fmt(before / 1e3, 2)]);
    t.row(&["fleet power after (kW)".into(), fmt(after / 1e3, 2)]);
    t.row(&["realised saving (W)".into(), fmt(realised, 0)]);
    t.row(&[
        "realised saving (%)".into(),
        fmt(100.0 * realised / before, 1),
    ]);
    t.row(&["§9.3.4 estimate (W)".into(), fmt(estimate.saved_w, 0)]);
    t.row(&["§9.3.4 estimate (%)".into(), fmt(estimate.percent(), 1)]);

    let holds = realised > 0.0 && (realised - estimate.saved_w).abs() < estimate.saved_w.max(1.0);
    let claim = "actuated savings confirm the estimator";
    let shape = r.claim(claim, holds);
    println!("\nshape: {shape} — {claim}, minus 2 W/unit housekeeping");
    println!(
        "redundancy: every router keeps its second PSU online for instant\n\
         failover — the resilience §9.3.4's plain 'use only one PSU' gives up."
    );
}

/// Extension — GREEN-style continuous efficiency monitoring (§9.4/§10).
///
/// The paper had to reconstruct PSU efficiency from a *one-time* sensor
/// export because standard monitoring carries only input power; it asks
/// for both `P_in` and `P_out` to be exported (the IETF GREEN WG's gap).
/// Our MIB implements the missing object, so this experiment does what
/// the paper could not: poll conversion efficiency **over time** and
/// watch it move with the daily load cycle.
pub fn ext_green_monitoring(r: &mut Report) {
    r.header("Extension", "continuous PSU-efficiency tracking (GREEN)");
    let mut fleet = standard_fleet();

    // Track one good router (NCS) and one poor one (8201) for 48 hours.
    let models = ["NCS-55A1-24H", "8201-32FH"];
    let tracked = models.map(|model| fleet.find_model(model).expect("in fleet"));
    let mut series = [Vec::new(), Vec::new()];
    for _ in 0..48 {
        fleet.advance(SimDuration::from_hours(1)).expect("advances");
        for (&idx, samples) in tracked.iter().zip(&mut series) {
            let tree = snapshot(&mut fleet.routers[idx].sim);
            samples.extend(mean_eff(&psu_efficiencies(&tree)));
        }
    }

    let t = TablePrinter::new(&[20, 10, 10, 10, 10]);
    t.header(&["router", "samples", "min %", "mean %", "max %"]);
    let means = series
        .each_ref()
        .map(|s| s.iter().sum::<f64>() / s.len() as f64);
    for ((name, series), mean) in models.into_iter().zip(&series).zip(means) {
        let min = series.iter().cloned().fold(f64::INFINITY, f64::min) * 100.0;
        let max = series.iter().cloned().fold(0.0f64, f64::max) * 100.0;
        t.row(&[
            name,
            &series.len().to_string(),
            &fmt(min, 1),
            &fmt(mean * 100.0, 1),
            &fmt(max, 1),
        ]);
    }

    let claim = "the continuous view separates good and poor PSU fleets";
    println!(
        "\nshape: {} — {claim},\nper router, without a datacenter visit (what §9.4 asks for)",
        r.claim(claim, means[0] > means[1] + 0.05)
    );
    println!(
        "\nnote: with only today's P_in objects, this table is impossible —\n\
         efficiency needs both sides of the conversion. One OID closes it."
    );
}

fn mean_eff(effs: &[(u32, f64)]) -> Option<f64> {
    if effs.is_empty() {
        return None;
    }
    Some(effs.iter().map(|(_, e)| e).sum::<f64>() / effs.len() as f64)
}

/// Extension — datasheet-extraction quality, quantified (§3.2 at scale).
///
/// The paper could only *sample* its LLM's outputs manually ("reasonably
/// accurate but — as one would expect — far from perfect"). Because our
/// corpus has a known truth layer, extraction quality is measurable
/// exactly, and we can sweep the hallucination model to see how much
/// parser noise the downstream trend analysis (Fig. 2b) tolerates.
pub fn ext_parser_quality(r: &mut Report) {
    r.header(
        "Extension",
        "datasheet parser quality and its downstream impact",
    );
    let truth = generate_corpus(&CorpusConfig::default());

    let t = TablePrinter::new(&[16, 10, 10, 10, 12, 12]);
    t.header(&[
        "hallucination",
        "exact",
        "wrong",
        "missed",
        "bw ok",
        "Fig.2b R²",
    ]);
    for rate in [0.0, 0.02, 0.04, 0.10, 0.25, 0.50] {
        let cfg = ParserConfig {
            hallucination_rate: rate,
            miss_rate: rate / 2.0,
            ..ParserConfig::default()
        };
        let extracted: Vec<_> = truth.iter().map(|r| extract(r, &cfg)).collect();
        let q = ExtractionQuality::evaluate(&truth, &extracted);
        let r2 = trend_strength(&efficiency_trend(&extracted, 250.0));
        t.row(&[
            format!("{:.0} %", rate * 100.0),
            q.typical_exact.to_string(),
            q.typical_wrong.to_string(),
            q.typical_missed.to_string(),
            q.bandwidth_ok.to_string(),
            fmt(r2, 3),
        ]);
    }

    println!(
        "\nreading: the §3.3.1 efficiency-trend conclusion is robust to\n\
         realistic hallucination rates (a few percent) — the weak system-\n\
         level trend is a property of the data, not of parser noise. Only\n\
         at absurd error rates does the downstream statistic move much."
    );
}

/// Extension — the full 10-month horizon of the paper's SNMP dataset,
/// with energy accounting.
///
/// The paper collects 10 months of 5-minute SNMP from 107 routers; the
/// shorter regenerators use 8-week windows for speed. This experiment
/// runs the whole horizon (≈87 k polls × 107 routers) and reports what an
/// operator ultimately pays for: energy. At ≈22 kW the network burns
/// ≈16 MWh per month-of-30-days; the §8/§9 savings translate to real
/// megawatt-hours at this horizon. Those savings are re-measured here by
/// the §8 and hot-standby experiments' own code, not quoted.
pub fn ext_long_horizon(r: &mut Report) {
    r.header("Extension", "10-month horizon with energy accounting");
    let mut fleet = standard_fleet();
    // Progress note goes through the event log (the report echoes events
    // to stderr), so it is captured in the snapshot alongside the
    // collection metrics.
    fj_telemetry::global().event(
        fj_telemetry::Level::Info,
        "bench.long_horizon",
        "simulating 305 days at 5-minute polls; this takes a few minutes…",
        &[("days", "305".to_owned())],
    );
    let horizon = (
        SimInstant::EPOCH,
        SimInstant::from_days(305),
        SimDuration::from_mins(5),
    );
    let traces = collect(&mut fleet, horizon, vec![], &[]);

    let t = TablePrinter::new(&[10, 12, 12, 12]);
    t.header(&["month", "mean kW", "MWh", "traffic Tb"]);
    let mut total_mwh = 0.0;
    for month in 0..10 {
        let lo = SimInstant::from_days(month * 30);
        let hi = SimInstant::from_days((month + 1) * 30);
        let p = traces.total_wall.slice(lo, hi);
        let Ok(mean_w) = p.mean() else { continue };
        let mwh = p.energy_kwh(hi) / 1e3;
        total_mwh += mwh;
        let tr = traces.total_traffic.slice(lo, hi).mean().unwrap_or(0.0);
        t.row(&[
            format!("{}", month + 1),
            fmt(mean_w / 1e3, 2),
            fmt(mwh, 1),
            fmt(tr / 1e12, 2),
        ]);
    }

    println!("\n10-month total: {total_mwh:.0} MWh");
    let (sleeping_low, _, _) = sleeping_month(&mut standard_fleet());
    let (_, before, after) = measure_hot_standby();
    let hot_standby = before - after;
    println!(
        "in context: the §8 link-sleeping low bound (≈{sleeping_low:.0} W) is\n\
         ≈{:.1} MWh over this horizon; fleet-wide hot standby (≈{hot_standby:.0} W)\n\
         is ≈{:.1} MWh — the units operators and sustainability reports use.",
        sleeping_low * 305.0 * 24.0 / 1e6,
        hot_standby * 305.0 * 24.0 / 1e6,
    );

    let kw = traces.total_wall.mean().expect("non-empty") / 1e3;
    let holds = (19.0..25.0).contains(&kw) && total_mwh > 100.0;
    let claim = "the long horizon holds the Fig. 1 level throughout";
    println!("\nshape: {} — {claim}", r.claim(claim, holds));
}

/// Extension — stacking the paper's actuatable measures.
///
/// The paper evaluates each saving vector in isolation. The simulator can
/// *actuate* two of them together — Hypnos link sleeping (§8) and
/// hot-standby PSU loading (§9.3.4 with the §9.4 capability) — and
/// measure the combined effect, including any interaction: sleeping links
/// lowers the DC demand, which moves the surviving PSU to a slightly
/// worse point on its curve, so the combined saving is a little less than
/// the sum.
pub fn ext_combined_savings(r: &mut Report) {
    r.header(
        "Extension",
        "combined actuated savings: sleeping + hot standby",
    );
    let baseline = || {
        let mut fleet = standard_fleet();
        fleet
            .advance(SimDuration::from_hours(3))
            .expect("fleet advances");
        fleet
    };
    let actuate_sleeping = |fleet: &mut Fleet| {
        algorithm::run_on_fleet(fleet, &HypnosConfig::default())
            .slept
            .len()
    };
    let before = baseline().total_wall_power_w();

    let mut sleep_only = baseline();
    let slept = actuate_sleeping(&mut sleep_only);
    let sleep_w = before - sleep_only.total_wall_power_w();

    let mut standby_only = baseline();
    let converted = actuate_hot_standby(&mut standby_only);
    let standby_w = before - standby_only.total_wall_power_w();

    let mut both = baseline();
    actuate_sleeping(&mut both);
    actuate_hot_standby(&mut both);
    let both_w = before - both.total_wall_power_w();

    let t = TablePrinter::new(&[30, 12, 10]);
    t.header(&["measure", "saved W", "saved %"]);
    t.row(&[
        format!("link sleeping ({slept} links)"),
        fmt(sleep_w, 0),
        fmt(100.0 * sleep_w / before, 2),
    ]);
    t.row(&[
        format!("hot standby ({converted} PSUs)"),
        fmt(standby_w, 0),
        fmt(100.0 * standby_w / before, 2),
    ]);
    t.row(&[
        "both".into(),
        fmt(both_w, 0),
        fmt(100.0 * both_w / before, 2),
    ]);
    t.row(&[
        "sum of parts".into(),
        fmt(sleep_w + standby_w, 0),
        fmt(100.0 * (sleep_w + standby_w) / before, 2),
    ]);

    let interaction = (sleep_w + standby_w) - both_w;
    println!(
        "\ninteraction term: {interaction:+.0} W — sleeping lowers DC demand, which\n\
         drops the carrying PSU to a slightly worse efficiency point; the\n\
         measures are *almost* additive but not quite."
    );
    let holds = both_w > sleep_w && both_w > standby_w && both_w <= sleep_w + standby_w + 20.0;
    let claim = "combined beats each alone, bounded by the sum";
    println!("shape: {} — {claim}", r.claim(claim, holds));
}

/// Extension — the §10 replication workflow.
///
/// The paper closes with: "replications of this study are necessary to
/// assess the generality of those observations" and builds the Network
/// Power Zoo to aggregate them. This experiment runs the workflow end to
/// end: three labs derive the same router model on three different
/// physical units (different PSU draws, different meters), publish to a
/// zoo, and a consumer averages the replications into a consensus model —
/// which lands closer to the truth than the median individual lab.
pub fn ext_replication(r: &mut Report) {
    r.header("Extension", "three-lab replication + consensus averaging");
    let class: InterfaceClass = "QSFP28/Passive DAC/100G".parse().expect("parses");
    let registry = builtin_registry();
    let truth = registry.get("Wedge100BF-32X").expect("published");

    // Three labs, three units, three meters; short sessions so individual
    // errors are visible.
    let mut zoo = Zoo::new();
    let mut labs = Vec::new();
    for (lab, seed) in [("lab-zrh", 101u64), ("lab-ams", 202), ("lab-par", 303)] {
        let mut config = DerivationConfig::quick("Wedge100BF-32X", class.transceiver, class.speed)
            .expect("builtin");
        config.point_duration = SimDuration::from_mins(2);
        let derived = Derivation::run(&config, seed).expect("derivation");
        zoo.add_model(ModelEntry {
            model: derived.model.clone(),
            methodology: format!("NetPowerBench quick session, seed {seed}"),
            contributor: Contributor::new(lab),
        });
        labs.push((lab, derived.model));
    }

    // Consumer side: pull all replications from the zoo and average.
    let replications: Vec<_> = zoo
        .models_for("Wedge100BF-32X")
        .into_iter()
        .map(|e| e.model.clone())
        .collect();
    let refs: Vec<&fj_core::PowerModel> = replications.iter().collect();
    let consensus = average_models(&refs).expect("same router model");

    let t = TablePrinter::new(&[12, 12, 12, 12, 12]);
    t.header(&[
        "source",
        "P_base err",
        "P_port err",
        "E_bit err",
        "E_pkt err",
    ]);
    let mut individual_port_errs = Vec::new();
    for (lab, model) in &labs {
        let e = compare_to_reference(model, truth, class).expect("same class");
        individual_port_errs.push(e.p_port_w);
        t.row(&[
            lab.to_string(),
            fmt(e.p_base_w, 4),
            fmt(e.p_port_w, 4),
            fmt(e.e_bit_pj, 3),
            fmt(e.e_pkt_nj, 2),
        ]);
    }
    let e = compare_to_reference(&consensus, truth, class).expect("same class");
    t.row(&[
        "consensus".into(),
        fmt(e.p_base_w, 4),
        fmt(e.p_port_w, 4),
        fmt(e.e_bit_pj, 3),
        fmt(e.e_pkt_nj, 2),
    ]);

    individual_port_errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_individual = individual_port_errs[1];
    let holds = e.p_port_w <= median_individual + 1e-6;
    r.claim("consensus beats the median individual lab", holds);
    println!(
        "\nshape: {}",
        if holds {
            "ok — averaging replications beats the median individual lab\n\
             (independent noise cancels; §10's aggregation pays off)"
        } else {
            "drift — consensus worse than the median lab for this seed"
        }
    );
    println!(
        "zoo now holds {} replications from {} contributors",
        zoo.summary().models,
        zoo.summary().distinct_contributors
    );
}

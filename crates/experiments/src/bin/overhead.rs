//! **§VI-A1 / §VI-B2 cycle accounting**: the latency of every FracDRAM
//! primitive, the F-MAJ-vs-MAJ3 overhead under the ComputeDRAM
//! reserved-row strategy, and the Frac-PUF evaluation time.
//!
//! Cycle counts are *measured* by executing the programs on the
//! controller and reading its clock, then cross-checked against the
//! documented constants.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin overhead
//! ```

use fracdram::fmaj::{fmaj_program, FmajConfig};
use fracdram::frac::{frac_program, FRAC_CYCLES};
use fracdram::halfm::halfm_program;
use fracdram::maj3::maj3_program;
use fracdram::puf::{EvalCost, PUF_FRAC_OPS};
use fracdram::rowcopy::{copy_program, COPY_CYCLES};
use fracdram::rowsets::{Quad, Triplet};
use fracdram_experiments::{render, setup, Args};
use fracdram_model::{GroupId, RowAddr, SubarrayAddr};
use fracdram_softmc::Program;

fn main() {
    let args = Args::parse();
    if args.usage(
        "overhead",
        "cycle accounting for every primitive + F-MAJ overhead + PUF eval time",
        &[("seed", "die seed (default 14)")],
    ) {
        return;
    }
    let seed = args.u64("seed", 14);
    args.reject_unknown();

    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
    let geometry = *mc.module().geometry();
    let sa = SubarrayAddr::new(0, 0);
    let triplet = Triplet::first(&geometry, sa);
    let quad = Quad::canonical(&geometry, sa, GroupId::B).expect("quad");

    let mut measure = |label: &str, program: &Program| -> u64 {
        // Prime the rows so data commands do not fail.
        mc.write_row(RowAddr::new(0, 1), &vec![true; mc.module().row_bits()])
            .expect("prime");
        let before = mc.clock();
        mc.run(program).expect(label);
        let cycles = mc.clock() - before;
        println!(
            "  {label:<34} {cycles:>5} cycles  = {:>7.1} ns",
            cycles as f64 * 2.5
        );
        cycles
    };

    println!(
        "{}",
        render::header("Primitive latencies (2.5 ns memory cycles)")
    );
    let frac1 = measure("Frac (1 op)", &frac_program(RowAddr::new(0, 1), 1));
    assert_eq!(frac1, FRAC_CYCLES, "documented constant");
    measure(
        "Frac (10 ops, PUF prep)",
        &frac_program(RowAddr::new(0, 1), PUF_FRAC_OPS),
    );
    let copy = measure(
        "in-DRAM row copy",
        &copy_program(RowAddr::new(0, 1), RowAddr::new(0, 5)),
    );
    assert_eq!(copy, COPY_CYCLES, "documented constant");
    let maj3 = measure(
        "MAJ3 (trigger + read + close)",
        &maj3_program(&triplet, &geometry),
    );
    let fmaj = measure(
        "F-MAJ trigger (same shape)",
        &fmaj_program(&quad, &geometry),
    );
    measure("Half-m", &halfm_program(&quad, &geometry));

    // ---- F-MAJ overhead under the reserved-row strategy --------------
    println!(
        "\n{}",
        render::header("F-MAJ overhead vs MAJ3 (ComputeDRAM reserved-row strategy)")
    );
    let frac_ops = FmajConfig::best_for(GroupId::B).frac_ops as u64;
    // MAJ3: copy 3 operands in, run, copy the result out.
    let maj3_total = 4 * COPY_CYCLES + maj3;
    // F-MAJ: additionally initialize the fractional row (one copy) and
    // apply the Frac operations.
    let fmaj_total = 4 * COPY_CYCLES + COPY_CYCLES + frac_ops * FRAC_CYCLES + fmaj;
    let overhead = (fmaj_total as f64 / maj3_total as f64 - 1.0) * 100.0;
    println!("  MAJ3 total  = 4 copies + trigger          = {maj3_total} cycles");
    println!("  F-MAJ total = 5 copies + {frac_ops} Frac + trigger   = {fmaj_total} cycles");
    println!("  overhead    = {overhead:.1}%   (paper: ~29% with its 18-cycle copy)");

    // ---- PUF evaluation time ------------------------------------------
    println!(
        "\n{}",
        render::header("Frac-PUF evaluation time (8 KB response)")
    );
    for (label, optimized) in [
        ("SoftMC-style read-out", false),
        ("optimized controller", true),
    ] {
        let cost = EvalCost::for_row(65_536, optimized);
        println!(
            "  {label:<24} prep {} + readout {} = {} = {:.2} us",
            cost.prep_cycles,
            cost.readout_cycles,
            cost.total(),
            cost.total_micros()
        );
    }
    println!("  paper: 1.5 us conservative, 0.7 us optimized (read-out dominates)");
}

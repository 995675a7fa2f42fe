//! Moving objects & the alibi query (the ROADMAP workload; benchmarked
//! as the `alibi_scan` workload of `stmtbench/`).
//!
//! Three delivery drones fly piecewise-linear routes over five unit time
//! slices, each surrounded by an uncertainty bead of radius 1 (GPS slack).
//! The *alibi query* between two drones asks: was there ever a time their
//! beads touched — i.e. were the nominal positions ever within distance 2?
//! Per slice `s` that is one quadratic-in-`t` constraint
//! `|Δp + Δv·(t − s)|² ≤ 4` conjoined with `s ≤ t ≤ s+1`, and the whole
//! query is the disjunction over slices — exactly the shape the
//! per-disjunct QE planner (DESIGN.md §16) routes through the quadratic
//! shortcut instead of CAD.
//!
//! Run with: `cargo run --example moving_objects`

use constraintdb::ConstraintDb;

const SLICES: usize = 5;

/// A drone: start position and one integer velocity per unit time slice.
struct Drone {
    name: &'static str,
    start: (i64, i64),
    vel: [(i64, i64); SLICES],
}

fn drones() -> Vec<Drone> {
    vec![
        // Ada flies east, then loops back south.
        Drone {
            name: "Ada",
            start: (0, 0),
            vel: [(3, 0), (3, 0), (2, -1), (0, -2), (-1, -2)],
        },
        // Boole starts far east and flies west — crossing Ada's path
        // around slice 2.
        Drone {
            name: "Boole",
            start: (14, 1),
            vel: [(-3, 0), (-3, 0), (-3, -1), (-2, -2), (0, -2)],
        },
        // Curry patrols a distant corridor and never comes close.
        Drone {
            name: "Curry",
            start: (0, 30),
            vel: [(2, 1), (2, 1), (2, 0), (2, 0), (2, -1)],
        },
    ]
}

/// Positions at the start of every slice (accumulated integer motion).
fn positions(d: &Drone) -> Vec<(i64, i64)> {
    let mut p = d.start;
    let mut out = Vec::with_capacity(SLICES);
    for v in d.vel {
        out.push(p);
        p = (p.0 + v.0, p.1 + v.1);
    }
    out
}

/// The alibi matrix for a drone pair, as CALC_F source over the free time
/// variable `t`: one disjunct per slice.
fn alibi_src(a: &Drone, b: &Drone) -> String {
    let (pa, pb) = (positions(a), positions(b));
    (0..SLICES)
        .map(|s| {
            let (dpx, dpy) = (pa[s].0 - pb[s].0, pa[s].1 - pb[s].1);
            let (dvx, dvy) = (a.vel[s].0 - b.vel[s].0, a.vel[s].1 - b.vel[s].1);
            format!(
                "(({dpx} + {dvx}*(t - {s}))^2 + ({dpy} + {dvy}*(t - {s}))^2 - 4 <= 0 \
                 and {s} <= t and t <= {})",
                s + 1
            )
        })
        .collect::<Vec<_>>()
        .join(" or ")
}

fn main() {
    let db = ConstraintDb::new();
    let fleet = drones();
    println!(
        "Alibi queries over {} drones, {SLICES} time slices:",
        fleet.len()
    );

    for i in 0..fleet.len() {
        for j in (i + 1)..fleet.len() {
            let (a, b) = (&fleet[i], &fleet[j]);
            let src = alibi_src(a, b);
            // Free-variable form: *when* were the beads touching?
            let when = db.query(&src).expect("QE succeeds");
            // Sentence form: did they ever touch? (∃t closes the query.)
            let ever = db.query(&format!("exists t ({src})")).expect("QE succeeds");
            let verdict = ever.contains(&[]);
            println!("\n  {} vs {}: beads touched? {verdict}", a.name, b.name);
            if verdict {
                println!("    touch times: {}", when.display());
            }
        }
    }
}

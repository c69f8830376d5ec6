//! E2b (Fig. 3): "Transition from a redoing scheme (D1) to a
//! reconfiguration scheme (D2) is obtained by replacing component c3,
//! which tolerates transient faults by redoing its computation, with a
//! 2-version scheme where a primary component (c3.1) is taken over by a
//! secondary one (c3.2) in case of permanent faults."
//!
//! Prints both snapshots, performs the injection on a live reflective
//! architecture, and shows the structural diff the injection applied.
//!
//! Takes no flags; any argument exits 2.

use afta_dag::{fig3_snapshots, ComponentGraph, ReflectiveArchitecture};
use afta_sim::Flags;

fn render(graph: &ComponentGraph) -> String {
    let mut out = String::new();
    for c in graph.components() {
        let succ: Vec<String> = graph
            .successors(&c.id)
            .map(|s| s.as_str().to_owned())
            .collect();
        out.push_str(&format!(
            "    {} [{}]{}\n",
            c.id,
            c.kind,
            if succ.is_empty() {
                String::new()
            } else {
                format!(" -> {}", succ.join(", "))
            }
        ));
    }
    out
}

fn main() {
    let _ = Flags::from_env(&[]);
    let (d1, d2) = fig3_snapshots();
    println!("D1 — redoing scheme (assumption e1: transient faults):");
    print!("{}", render(&d1));
    println!("\nD2 — reconfiguration scheme (assumption e2: permanent faults):");
    print!("{}", render(&d2));

    let mut arch = ReflectiveArchitecture::new(d1.clone());
    arch.store_snapshot("D1", d1).unwrap();
    arch.store_snapshot("D2", d2).unwrap();
    let diff = arch.inject("D2").unwrap();

    println!("\ninjecting D2 on the reflective DAG applied this diff:");
    for c in &diff.removed_components {
        println!("    - component {c}");
    }
    for c in &diff.added_components {
        println!("    + component {c}");
    }
    for (a, b) in &diff.removed_edges {
        println!("    - edge {a} -> {b}");
    }
    for (a, b) in &diff.added_edges {
        println!("    + edge {a} -> {b}");
    }
    println!(
        "\nrunning architecture after injection ({} components, topological order {:?})",
        arch.current().len(),
        arch.current()
            .topological_order()
            .iter()
            .map(|c| c.as_str().to_owned())
            .collect::<Vec<_>>()
    );
}

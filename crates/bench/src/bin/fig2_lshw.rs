//! E1 (Fig. 2): the `lshw`-style memory introspection dump for the
//! simulated Dell Inspiron 6000 — the information the §3.1 Autoconf-like
//! toolset reads through Serial Presence Detect.
//!
//! Takes no flags; any argument exits 2.

use afta_memsim::MachineInventory;
use afta_sim::Flags;

fn main() {
    let _ = Flags::from_env(&[]);
    let machine = MachineInventory::dell_inspiron_6000();
    print!("{}", machine.render_lshw());
    eprintln!(
        "\n(total {} MiB across {} banks; lot keys: {})",
        machine.total_mib(),
        machine.banks().len(),
        machine
            .banks()
            .iter()
            .map(|b| b.spd.lot_key())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

//! E0 (Fig. 1): the Serial Presence Detect record.  The paper's Fig. 1 is
//! a photograph of the SPD EEPROM on a DIMM; its *content* — "information
//! about a computer's memory module, e.g. its manufacturer, model, size,
//! and speed" — is what the §3.1 checking rules read.  This binary dumps
//! the SPD records of the simulated machine, including the JSON form a
//! shared failure database would key on.
//!
//! Takes no flags; any argument exits 2.

use afta_memsim::MachineInventory;
use afta_sim::Flags;

fn main() {
    let _ = Flags::from_env(&[]);
    let machine = MachineInventory::dell_inspiron_6000();
    println!(
        "Serial Presence Detect records ({} banks):\n",
        machine.banks().len()
    );
    for bank in machine.banks() {
        let spd = &bank.spd;
        println!("slot {}:", bank.slot);
        println!("  vendor:     {}", spd.vendor);
        println!("  model:      {}", spd.model);
        println!("  serial:     {}", spd.serial);
        println!("  lot:        {}", spd.lot);
        println!("  size:       {} MiB", spd.size_mib);
        println!(
            "  clock:      {} MHz ({:.1} ns)",
            spd.clock_mhz,
            spd.cycle_ns()
        );
        println!("  width:      {} bits", spd.width_bits);
        println!("  technology: {}", spd.technology);
        println!("  model key:  {}", spd.model_key());
        println!("  lot key:    {}", spd.lot_key());
        println!(
            "  json:       {}\n",
            serde_json::to_string(spd).expect("SPD serialises")
        );
    }
}

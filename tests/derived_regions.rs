//! The engine resolves every OpenMP construct's derived regions (fork,
//! join, implicit barriers) once per run into a [`DerivedRegions`]
//! table. On every paper configuration, each construct the engine
//! executes must find exactly the id the name-based lookups return.

use nrlt::exec::{implicit_barrier_of, parallel_regions, prepare_regions, DerivedRegions};
use nrlt::miniapps::all_configurations;
use nrlt::prog::{Action, OmpAction};

#[test]
fn precomputed_derived_ids_match_name_lookups_on_every_configuration() {
    for inst in all_configurations() {
        let table = prepare_regions(&inst.program);
        let derived = DerivedRegions::new(&table);
        let (mut parallels, mut barriers) = (0, 0);
        for action in inst.program.ranks.iter().flatten() {
            let Action::Parallel(pr) = action else { continue };
            assert_eq!(
                derived.parallel(pr.region),
                Some(parallel_regions(&table, pr.region)),
                "{}: parallel region {}",
                inst.name,
                table.name(pr.region)
            );
            parallels += 1;
            for body in pr.body.iter() {
                let construct = match body {
                    OmpAction::For(f) if !f.nowait => f.region,
                    OmpAction::Single { region, nowait: false, .. } => *region,
                    _ => continue,
                };
                assert_eq!(
                    derived.implicit_barrier(construct),
                    Some(implicit_barrier_of(&table, construct)),
                    "{}: construct {}",
                    inst.name,
                    table.name(construct)
                );
                barriers += 1;
            }
        }
        assert!(parallels > 0 && barriers > 0, "{} runs no OpenMP constructs", inst.name);
    }
}

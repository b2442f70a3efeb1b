//! Properties of the workspace symbol pass.
//!
//! The pass promises **totality**: any `.rs` path — well-formed Cargo
//! layout or not — resolves to exactly one module identity, and every
//! identity classifies to exactly one surface. The cross-file rules
//! lean on that (a file the resolver dropped would silently escape
//! FJ07–FJ09), so it is pinned here over generated paths, not just the
//! real tree. A second suite checks the pass against this workspace
//! itself: every file the walker collects must resolve, classify, and —
//! for library modules — be reachable from its crate root.

use fj_lint::symbols::{self, Surface, SurfaceMap};
use fj_lint::workspace::{self, FileClass};
use proptest::prelude::*;

/// Path segments mixing conventional layout with junk.
fn segment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("src".to_owned()),
        Just("tests".to_owned()),
        Just("benches".to_owned()),
        Just("examples".to_owned()),
        Just("bin".to_owned()),
        Just("mod".to_owned()),
        Just("lib".to_owned()),
        Just("main".to_owned()),
        "[a-z_][a-z0-9_]{0,8}",
    ]
}

fn rel_path() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            Just("crates/".to_owned()),
            Just("vendor/".to_owned()),
            Just(String::new()),
        ],
        prop::collection::vec(segment(), 1..6),
    )
        .prop_map(|(prefix, segs)| format!("{prefix}{}.rs", segs.join("/")))
}

proptest! {
    /// Resolution is total and pure: every generated path yields one
    /// identity, twice over, and classification never panics for any
    /// file class.
    #[test]
    fn resolution_is_total_and_pure(rel in rel_path()) {
        let id = symbols::resolve(&rel);
        prop_assert_eq!(&id, &symbols::resolve(&rel), "resolution must be pure");
        prop_assert!(!id.member.is_empty(), "member empty for {}", rel);
        prop_assert!(
            !id.path.contains('/'),
            "unconverted separator in {} → {}", rel, id.path
        );
        for class in [FileClass::Library, FileClass::Bin, FileClass::Test, FileClass::Vendor] {
            let surface = symbols::classify(&id, class);
            if matches!(class, FileClass::Test | FileClass::Vendor) {
                prop_assert_eq!(surface, Surface::Off);
            }
        }
    }

    /// The surface map is total over its inputs: every file appears
    /// exactly once, in sorted order, and the JSON dump lists them all.
    #[test]
    fn surface_map_covers_every_input(rels in prop::collection::btree_set(rel_path(), 0..20)) {
        let files: Vec<(String, FileClass, Vec<String>, bool)> = rels
            .iter()
            .map(|r| (r.clone(), FileClass::Library, vec![], false))
            .collect();
        let map = SurfaceMap::build(&files);
        prop_assert_eq!(map.modules.len(), files.len());
        let json = map.render_json();
        for rel in &rels {
            prop_assert!(map.get(rel).is_some(), "{} missing from map", rel);
            prop_assert!(json.contains(rel.as_str()), "{} missing from dump", rel);
        }
        for pair in map.modules.windows(2) {
            prop_assert!(pair[0].rel < pair[1].rel, "map not sorted");
        }
    }
}

/// Every file in this actual workspace resolves, classifies, and renders.
#[test]
fn real_workspace_resolves_completely() {
    let root = workspace::find_root(&std::env::current_dir().unwrap()).expect("workspace root");
    let files = workspace::scan(&root).expect("scan");
    let facts: Vec<(String, FileClass, Vec<String>, bool)> = files
        .iter()
        .filter(|f| f.class != FileClass::Vendor)
        .map(|f| {
            let spans = fj_lint::lexer::lex(&f.text);
            let code = fj_lint::lexer::code_only(&f.text, &spans);
            (
                f.rel.clone(),
                f.class,
                symbols::mod_decls(&code),
                symbols::references_shard_seam(&code),
            )
        })
        .collect();
    assert!(facts.len() > 100, "workspace walker found too few files");
    let map = SurfaceMap::build(&facts);
    assert_eq!(map.modules.len(), facts.len());

    // The audited seams and off-surface planes land where the seeds say.
    let surface = |rel: &str| {
        map.get(rel)
            .unwrap_or_else(|| panic!("{rel} missing"))
            .surface
    };
    assert_eq!(
        surface("crates/telemetry/src/clock.rs"),
        Surface::AuditedSeam
    );
    assert_eq!(
        surface("crates/telemetry/src/metrics.rs"),
        Surface::AuditedSeam
    );
    assert_eq!(surface("crates/par/src/lib.rs"), Surface::AuditedSeam);
    assert_eq!(surface("crates/isp/src/profile.rs"), Surface::Off);
    assert_eq!(surface("crates/telemetry/src/progress.rs"), Surface::Off);
    assert_eq!(surface("crates/telemetry/src/flightrec.rs"), Surface::Off);
    assert_eq!(surface("crates/isp/src/fleet.rs"), Surface::Deterministic);

    // No library module in this tree is orphaned: every one is reachable
    // from its crate root via `mod` declarations.
    for m in &map.modules {
        assert!(
            m.declared,
            "{} resolves to {}::{} but no mod chain reaches it",
            m.rel, m.id.member, m.id.path
        );
    }
}

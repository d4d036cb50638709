//! The shipped spec files are in canonical form — printing a parsed file
//! gives back its bytes — and each constructor returns exactly the file
//! its option names.

use ccr_core::refine::{refine, RefineOptions};
use ccr_core::text::{parse, parse_validated, to_text};
use ccr_protocols::invalidate::{invalidate, InvalidateOptions};
use ccr_protocols::migratory::{migratory, MigratoryOptions};
use ccr_protocols::token::token;
use ccr_protocols::update::update;
use std::path::PathBuf;

/// `specs/`, found from this crate's directory or the workspace root's
/// (the suite also runs from the root package).
fn specs_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("specs"))
        .find(|dir| dir.is_dir())
        .expect("specs/ above the manifest")
}

fn read(name: &str) -> String {
    let path = specs_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_shipped_spec_prints_back_byte_for_byte() {
    let mut names: Vec<String> = std::fs::read_dir(specs_dir())
        .expect("specs/")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".ccp"))
        .collect();
    names.sort();
    assert!(names.len() >= 12, "{names:?}");
    for name in names {
        let text = read(&name);
        let spec = parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(to_text(&spec), text, "{name} is not canonical");
    }
}

#[test]
fn token_round_trips() {
    assert_eq!(to_text(&token()), read("token.ccp"));
}

#[test]
fn migratory_round_trips_all_variants() {
    for (opts, file) in [
        (MigratoryOptions::CpuGated, "migratory_cpu.ccp"),
        (MigratoryOptions::Checking, "migratory.ccp"),
        (MigratoryOptions::Data2, "migratory_data2.ccp"),
        (MigratoryOptions::Data4, "migratory_data4.ccp"),
        (MigratoryOptions::GatedData2, "migratory_gated.ccp"),
    ] {
        assert_eq!(to_text(&migratory(&opts)), read(file), "{opts:?}");
    }
}

#[test]
fn invalidate_round_trips() {
    for (opts, file) in [
        (InvalidateOptions::NoData, "invalidate_nodata.ccp"),
        (InvalidateOptions::Data2, "invalidate.ccp"),
    ] {
        assert_eq!(to_text(&invalidate(&opts)), read(file), "{opts:?}");
    }
}

#[test]
fn parsed_spec_refines_identically() {
    let spec = migratory(&MigratoryOptions::Checking);
    let parsed = parse(&to_text(&spec)).unwrap();
    let a = refine(&spec, &RefineOptions::default()).unwrap();
    let b = refine(&parsed, &RefineOptions::default()).unwrap();
    assert_eq!(a.pairs, b.pairs);
    assert_eq!(a.home, b.home);
    assert_eq!(a.remote, b.remote);
    assert_eq!(a.home_noack, b.home_noack);
    assert_eq!(a.remote_reply, b.remote_reply);
}

#[test]
fn update_round_trips() {
    assert_eq!(to_text(&update()), read("update.ccp"));
}

#[test]
fn text_is_idempotent() {
    let spec = invalidate(&InvalidateOptions::Data2);
    let t1 = to_text(&spec);
    let t2 = to_text(&parse(&t1).unwrap());
    assert_eq!(t1, t2);
}

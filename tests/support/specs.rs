//! Every `specs/*.ccp`, parsed and validated, by file name in order.

use ccr_core::process::ProtocolSpec;
use ccr_core::text::parse_validated;
use std::path::Path;

pub fn shipped_specs() -> Vec<(String, ProtocolSpec)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("specs/")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".ccp"))
        .collect();
    names.sort();
    assert!(names.iter().any(|n| n == "migratory_broken.ccp"), "{names:?}");
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(dir.join(&name)).expect("read spec");
            let spec = parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, spec)
        })
        .collect()
}

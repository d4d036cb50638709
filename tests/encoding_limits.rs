//! A spec too large for the state encoding is refused, not miscounted.
//!
//! The asynchronous and rendezvous encodings store a message type in one
//! byte. A spec with 300 message types used to pass `ccr check`, after
//! which message 256 was stored as message 0 — two states, one store key,
//! a silently wrong state count. `validate` now rejects it with the
//! offending count.

use ccr_core::text::{parse, parse_validated};
use ccr_core::validate::{validate, MAX_MSG_TYPES};
use ccr_core::CoreError;

/// A well-formed spec declaring `count` message types and using the first
/// and the last, so the last one's id is `count - 1`.
fn spec_with_messages(count: usize) -> String {
    let names: Vec<String> = (0..count).map(|i| format!("m{i}")).collect();
    let last = &names[count - 1];
    format!(
        "protocol wide {{\n  messages {};\n  home {{\n    state H init {{\n      r(*) ? m0 -> H;\n      r(*) ? {last} -> H;\n    }}\n  }}\n  remote {{\n    state A init {{\n      h ! m0 -> B;\n    }}\n    state B {{\n      h ! {last} -> A;\n    }}\n  }}\n}}\n",
        names.join(", ")
    )
}

#[test]
fn three_hundred_message_types_are_a_typed_error_and_ccr_check_fails() {
    let at_limit = parse_validated(&spec_with_messages(MAX_MSG_TYPES)).expect("256 types fit");
    assert_eq!(at_limit.msgs.len(), 256);

    let text = spec_with_messages(300);
    let spec = parse(&text).expect("the text itself is well-formed");
    assert_eq!(
        validate(&spec),
        Err(CoreError::TooLarge { what: "message types", count: 300, max: 256 })
    );
    assert!(parse_validated(&text).is_err());

    let dir = std::env::temp_dir().join(format!("ccr-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("wide.ccp");
    std::fs::write(&path, &text).expect("write spec");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ccr"))
        .arg("check")
        .arg(&path)
        .output()
        .expect("spawn ccr");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success(), "ccr check must refuse the spec");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("300 message types"), "{stderr}");
}

/// The config-side widths: lengths the encoding stores in one byte.
#[test]
fn configs_past_the_encoded_widths_are_refused_at_construction() {
    use ccr_core::refine::{refine, RefineOptions};
    use ccr_runtime::asynch::{AsyncConfig, AsyncSystem};

    let spec = parse_validated(&spec_with_messages(2)).expect("parse");
    let refined = refine(&spec, &RefineOptions::default()).expect("refine");
    let fits = AsyncConfig {
        home_buffer: 200,
        link_capacity: 255,
        unacked_allowance: 55,
        ..AsyncConfig::default()
    };
    let _ = AsyncSystem::new(&refined, 2, fits.clone());
    for bad in [
        AsyncConfig { link_capacity: 256, ..fits.clone() },
        AsyncConfig { unacked_allowance: 56, ..fits.clone() },
    ] {
        let built = std::panic::catch_unwind(|| AsyncSystem::new(&refined, 2, bad.clone()).n());
        assert!(built.is_err(), "{bad:?} must be refused");
    }
    assert!(std::panic::catch_unwind(
        || AsyncSystem::new(&refined, (1 << 16) + 1, fits.clone()).n()
    )
    .is_err());
}

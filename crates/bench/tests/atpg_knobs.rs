//! `tables --atpg` rejects malformed `SCFLOW_ATPG_*` knobs with exit
//! code 2 and a message naming the variable and its value, before doing
//! any work.

use std::process::Command;

fn tables_atpg(var: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("--atpg")
        .env(var, value)
        .output()
        .expect("run tables");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_atpg_knobs_exit_2_naming_variable_and_value() {
    for (var, value) in [
        ("SCFLOW_ATPG_STAGES", "directd"),
        ("SCFLOW_ATPG_BUDGET", "2OO"),
        ("SCFLOW_ATPG_MIN", "9five"),
        ("SCFLOW_ATPG_MIN", "nan"),
    ] {
        let (code, stderr) = tables_atpg(var, value);
        assert_eq!(code, Some(2), "{var}={value}: stderr {stderr}");
        assert!(
            stderr.contains(var) && stderr.contains(value),
            "{var}={value}: message does not name the knob: {stderr}"
        );
    }
}

//! Own-process checks of `STREAM_TAPE_STRIPS` handling. The override is
//! read once per process through a `OnceLock`, so each case re-executes
//! this test binary with a different value (or none) and asserts on the
//! child's planner behavior and (in debug builds) its stderr diagnostics —
//! out-of-range or unrecognized values must be *reported and ignored*,
//! never silently clamped.

use std::process::{Command, Output};
use stream_ir::{probe_planned_strips, KernelBuilder, Tape, Ty};

fn eligible_tape() -> Tape {
    let mut b = KernelBuilder::new("copy");
    let s = b.in_stream(Ty::I32);
    let out = b.out_stream(Ty::I32);
    let x = b.read(s);
    b.write(out, x);
    Tape::compile(&b.finish().unwrap())
}

/// Re-runs this test in a child process with `STREAM_TAPE_STRIPS` set to
/// `strips_value`, or unset for `None`.
fn rerun_self(strips_value: Option<&str>) -> Output {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["strip_override_env_handling", "--exact", "--nocapture"])
        .env("STRIP_ENV_CHILD", "1");
    match strips_value {
        Some(v) => cmd.env("STREAM_TAPE_STRIPS", v),
        None => cmd.env_remove("STREAM_TAPE_STRIPS"),
    };
    let out = cmd.output().expect("re-running the test binary");
    assert!(
        out.status.success(),
        "child with STREAM_TAPE_STRIPS={strips_value:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The child's report: `(planned strips, most strips its pool can cover)`.
fn child_plan(out: &Output) -> (usize, usize) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("strip-plan "))
        .unwrap_or_else(|| panic!("child printed no strip plan:\n{stdout}"));
    let mut nums = line
        .split(' ')
        .map(|n| n.parse().expect("strip-plan number"));
    (nums.next().unwrap(), nums.next().unwrap())
}

#[test]
fn strip_override_env_handling() {
    // Child mode: report what the planner decides under the inherited env.
    if std::env::var_os("STRIP_ENV_CHILD").is_some() {
        let strips = probe_planned_strips(&eligible_tape(), 1 << 20, 4);
        let max = stream_pool::global().available() + 1;
        println!("strip-plan {strips} {max}");
        return;
    }

    // Parent mode. Auto planning's answer on this host is the reference
    // every ignored override must reproduce.
    let (auto, _) = child_plan(&rerun_self(None));

    let out = rerun_self(Some("3"));
    let (strips, max) = child_plan(&out);
    if max >= 3 {
        assert_eq!(strips, 3, "exact numeric override must be honored");
    } else {
        // Out of range on this host: rejected, so Auto decides. Auto may
        // coincide with a clamp here, so the diagnostic is what proves
        // the override was ignored rather than clamped.
        assert_eq!(strips, auto, "underprovisioned host must reject, not clamp");
        if cfg!(debug_assertions) {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("out of range") && stderr.contains("override ignored"),
                "STREAM_TAPE_STRIPS=3 with {max} strips available must be diagnosed, got:\n{stderr}"
            );
        }
    }

    for (value, needle) in [
        ("0", "out of range"),
        ("99999", "out of range"),
        ("sideways", "unrecognized"),
    ] {
        let out = rerun_self(Some(value));
        let (strips, _) = child_plan(&out);
        assert_eq!(strips, auto, "STREAM_TAPE_STRIPS={value} must be ignored");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if cfg!(debug_assertions) {
            assert!(
                stderr.contains(needle),
                "STREAM_TAPE_STRIPS={value} must be diagnosed with {needle:?}, got:\n{stderr}"
            );
        }
    }
}

//! The solo CLI path's `tick` telemetry events carry each query's own
//! oracle as `exact` — for a `SUM` statement the exact sum, not the
//! world's plain `AVG`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

#[test]
fn tick_events_carry_the_members_own_oracle() {
    let telemetry = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_sum_ticks.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_digest-cli"))
        .args(["--world", "temperature", "--ticks", "5", "--seed", "1"])
        .arg("--telemetry")
        .arg(&telemetry)
        .arg("SELECT SUM(temperature) FROM R WITH delta=400, epsilon=200, p=0.95")
        .output()
        .expect("digest-cli runs");
    assert!(output.status.success(), "digest-cli failed: {output:?}");

    // `t=    3  [0] UPDATE  X̂ = …   (oracle = 122306.214)`
    let stdout = String::from_utf8(output.stdout).unwrap();
    let oracles: BTreeMap<u64, String> = stdout
        .lines()
        .filter(|line| line.contains(" UPDATE "))
        .map(|line| {
            let tick = line["t=".len()..].split_whitespace().next().unwrap();
            let oracle = line
                .rsplit("oracle = ")
                .next()
                .unwrap()
                .trim_end_matches(')');
            (tick.parse().unwrap(), oracle.trim().to_owned())
        })
        .collect();

    let events = std::fs::read_to_string(&telemetry).unwrap();
    let mut checked = 0;
    for line in events.lines() {
        let event: Value = serde_json::from_str(line).unwrap();
        if event["kind"] != "tick" {
            continue;
        }
        let tick = event["tick"].as_u64().unwrap();
        let exact = event["exact"].as_f64().unwrap();
        // Every tick of this run reports (δ is far below the sum's
        // per-tick drift), so each tick event has its UPDATE line.
        let oracle = oracles
            .get(&tick)
            .unwrap_or_else(|| panic!("no UPDATE line at tick {tick}"));
        assert_eq!(
            &format!("{exact:.3}"),
            oracle,
            "tick {tick}: event exact differs from the member's oracle"
        );
        checked += 1;
    }
    assert_eq!(checked, 5, "expected one tick event per tick");
}

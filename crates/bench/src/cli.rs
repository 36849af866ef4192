//! Tiny shared argument helpers for the harness binaries
//! (`experiments`, `sweep`) — one implementation of
//! flag extraction, so the binaries cannot drift apart. A binary's
//! `main` validates what it extracted (`parse_thread_count`,
//! `parse_shard_count`, `parse_worker_count`, `parse_max_reclaims`,
//! `parse_reps`, `parse_seed`) and hands the value down as an argument.

/// Extracts every `--flag <value>` occurrence, removing the consumed
/// tokens. Errors when a final `--flag` has no value token.
pub fn take_values(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    while let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        out.push(args.remove(pos + 1));
        args.remove(pos);
    }
    Ok(out)
}

/// Extracts an at-most-once `--flag <value>`.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut all = take_values(args, flag)?;
    if all.len() > 1 {
        return Err(format!("{flag} given more than once"));
    }
    Ok(all.pop())
}

/// Removes every occurrence of a bare `--flag`; true if it appeared.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let mut seen = false;
    while let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        seen = true;
    }
    seen
}

/// A copy of `args` with every `--flag <value>` pair removed — for
/// rebuilding a child process's argv from the parent's raw argv.
pub fn strip_value_flag(args: &[String], flag: &str) -> Vec<String> {
    let mut out = args.to_vec();
    while let Some(pos) = out.iter().position(|a| a == flag) {
        out.remove(pos);
        if pos < out.len() {
            out.remove(pos);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn take_values_consumes_all_occurrences() {
        let mut a = args(&["--axis", "x=1", "keep", "--axis", "y=2"]);
        assert_eq!(take_values(&mut a, "--axis").unwrap(), ["x=1", "y=2"]);
        assert_eq!(a, ["keep"]);
        assert!(take_values(&mut args(&["--axis"]), "--axis").is_err());
    }

    #[test]
    fn take_value_rejects_repeats() {
        let mut a = args(&["--seed", "1", "--seed", "2"]);
        assert!(take_value(&mut a, "--seed").is_err());
        let mut b = args(&["--seed", "7"]);
        assert_eq!(take_value(&mut b, "--seed").unwrap().as_deref(), Some("7"));
        assert!(b.is_empty());
    }

    #[test]
    fn take_switch_removes_every_occurrence() {
        let mut a = args(&["--report", "rest", "--report"]);
        assert!(take_switch(&mut a, "--report"));
        assert!(!take_switch(&mut a, "--report"));
        assert_eq!(a, ["rest"]);
    }

    #[test]
    fn strip_value_flag_removes_pairs_without_touching_the_rest() {
        let a = args(&["--workers", "3", "--seed", "42", "--workers", "4"]);
        assert_eq!(strip_value_flag(&a, "--workers"), args(&["--seed", "42"]));
        // A trailing valueless flag strips cleanly too.
        let b = args(&["--seed", "42", "--workers"]);
        assert_eq!(strip_value_flag(&b, "--workers"), args(&["--seed", "42"]));
    }
}

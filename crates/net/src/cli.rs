//! Minimal flag parsing shared by the workspace's binaries
//! (`inano-serve`, `fleet_scrape`): `--name value` pairs,
//! typed by the caller, defaulting only on absence. Whatever the
//! operator typed and the binary cannot honour — a value that does not
//! parse, a flag with no value, a flag it does not know, a flag that
//! only means something beside another that is absent — is a startup
//! panic naming it, never a silent default.

fn env_args() -> Vec<String> {
    std::env::args().collect()
}

/// Value of `--name` from `std::env::args()`, or `default` when the
/// flag is absent. See [`arg_in`].
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_in(&env_args(), name, default)
}

/// Value of `--name` in `args`, or `default` when the flag is absent.
///
/// A flag that is present with a value that does not parse as `T` (or
/// with no value at all) is a startup panic: `--port 80x` quietly
/// binding the default port is the operator finding out from their
/// clients.
pub fn arg_in<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    let Some(value) = args.get(i + 1) else {
        panic!("flag {name} requires a value");
    };
    value.parse().unwrap_or_else(|_| {
        panic!(
            "flag {name}: {value:?} is not a valid {}",
            std::any::type_name::<T>()
        )
    })
}

/// Panic at startup if `std::env::args()` holds a `--flag` outside
/// `known`. See [`refuse_unknown_in`].
pub fn refuse_unknown(known: &[&str]) {
    refuse_unknown_in(&env_args(), known);
}

/// Panic if any `--flag` token of `args` (after the program name) is
/// not in `known`: a misspelt or since-removed flag must stop the
/// start, not be ignored while the server runs on a default the
/// operator believes they overrode.
pub fn refuse_unknown_in(args: &[String], known: &[&str]) {
    if let Some(stranger) = args
        .iter()
        .skip(1)
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        panic!("unknown flag {stranger} (known: {})", known.join(" "));
    }
}

/// Panic at startup if `std::env::args()` holds `flag` without
/// `parent`. See [`requires_in`].
pub fn requires(flag: &str, parent: &str) {
    requires_in(&env_args(), flag, parent);
}

/// Panic if `args` holds `flag` but not `parent`, the flag that gives
/// it meaning (`--udp-rate` tunes the socket `--udp` binds): read only
/// under its parent, it would otherwise be accepted and dropped.
pub fn requires_in(args: &[String], flag: &str, parent: &str) {
    let has = |name: &str| args.iter().skip(1).any(|a| a == name);
    if has(flag) && !has(parent) {
        panic!("flag {flag} has no effect without {parent}");
    }
}

/// The value of every occurrence of `name`, in command-line order.
/// This is how `inano-serve` turns repeated `--atlas FILE` flags into
/// shards: the k-th occurrence populates shard k.
///
/// A flag with a missing value (end of line, or the next token is
/// itself a flag) is a startup panic: silently dropping a shard the
/// operator asked for would surface much later as `UnknownShard`
/// faults on live clients.
pub fn repeated(name: &str) -> Vec<String> {
    let args = env_args();
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => out.push(v.clone()),
                _ => panic!("flag {name} requires a value"),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn absent_flag_takes_the_default_and_a_present_one_its_value() {
        let args = line(&["inano-serve", "--port", "4800", "--bind", "0.0.0.0"]);
        assert_eq!(arg_in(&args, "--port", 4711u16), 4800);
        assert_eq!(arg_in(&args, "--bind", String::new()), "0.0.0.0");
        assert_eq!(arg_in(&args, "--max-conns", 256usize), 256);
    }

    #[test]
    #[should_panic(expected = "flag --port: \"80x\" is not a valid u16")]
    fn unparseable_value_panics_naming_flag_and_value() {
        arg_in(&line(&["inano-serve", "--port", "80x"]), "--port", 4711u16);
    }

    #[test]
    #[should_panic(expected = "flag --max-conns: \"1e4\" is not a valid usize")]
    fn a_float_is_not_a_count() {
        let args = line(&["inano-serve", "--max-conns", "1e4"]);
        arg_in(&args, "--max-conns", 256usize);
    }

    #[test]
    #[should_panic(expected = "flag --port requires a value")]
    fn flag_at_end_of_line_panics() {
        arg_in(&line(&["inano-serve", "--port"]), "--port", 4711u16);
    }

    #[test]
    fn known_flags_and_their_values_pass() {
        let args = line(&["inano-serve", "--atlas", "day0.atlas", "--port", "0", "-1"]);
        refuse_unknown_in(&args, &["--atlas", "--port"]);
    }

    #[test]
    fn a_dependent_flag_beside_its_parent_or_absent_passes() {
        let args = line(&["inano-serve", "--udp", "127.0.0.1:0", "--udp-rate", "5"]);
        requires_in(&args, "--udp-rate", "--udp");
        requires_in(&args, "--refresh-ms", "--mirror");
    }

    #[test]
    #[should_panic(expected = "flag --udp-rate has no effect without --udp")]
    fn a_dependent_flag_without_its_parent_is_refused_naming_both() {
        let args = line(&["inano-serve", "--atlas", "day0.atlas", "--udp-rate", "5"]);
        requires_in(&args, "--udp-rate", "--udp");
    }

    #[test]
    #[should_panic(expected = "unknown flag --workers")]
    fn a_removed_flag_is_refused_not_ignored() {
        let args = line(&["inano-serve", "--atlas", "day0.atlas", "--workers", "8"]);
        refuse_unknown_in(&args, &["--atlas", "--port"]);
    }
}

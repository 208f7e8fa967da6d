//! Command-line number parsing shared by the examples and gates.

/// Parses a `u64` written in hex (`0x`/`0X` prefix) or decimal.
pub fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// An optional numeric argument: `default` when absent. A present but
/// unparseable one is a usage error: prints `usage` and exits with
/// status 2, rather than silently running with the default.
pub fn num_arg(arg: Option<&str>, default: u64, usage: &str) -> u64 {
    let Some(s) = arg else { return default };
    parse_u64(s).unwrap_or_else(|| {
        eprintln!("not a number: {s:?}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_and_decimal_parse_alike() {
        assert_eq!(parse_u64("0xe12"), Some(3602));
        assert_eq!(parse_u64("0XE12"), Some(3602));
        assert_eq!(parse_u64("3602"), Some(3602));
        assert_eq!(parse_u64("0x"), None);
        assert_eq!(parse_u64("12abc"), None);
        assert_eq!(parse_u64("-1"), None);
        assert_eq!(num_arg(None, 7, "usage"), 7);
        assert_eq!(num_arg(Some("0x5"), 7, "usage"), 5);
    }
}

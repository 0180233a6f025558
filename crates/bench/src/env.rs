//! Strict parsing for the `CAVM_TRACE_*` environment knobs of
//! `cavm-exp trace`.
//!
//! A typo like `CAVM_TRACE_HORIZON=4O` must abort naming the variable
//! and the rejected value — not silently fall back to the default and
//! replay the wrong-sized trace as if it were the requested one. Only
//! an *unset* variable means "use the default".

use std::any::type_name;
use std::str::FromStr;

/// Reads `key` as a `T` (`usize`, `f64`, `u64`, `String`, …), falling
/// back to `default` only when the variable is **unset**.
///
/// # Panics
///
/// Panics — naming the variable and the rejected value — when the
/// variable is set but does not parse, or is not unicode.
pub fn parse_or<T: FromStr>(key: &str, default: T) -> T {
    match std::env::var(key) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("{key}={raw:?}: not unicode")
        }
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            panic!(
                "{key}={raw:?}: not a valid {}",
                type_name::<T>().rsplit("::").next().expect("nonempty")
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a unique variable name: the test harness runs
    // tests in parallel and the environment is process-global.

    #[test]
    fn unset_means_default() {
        assert_eq!(parse_or("CAVM_ENVTEST_UNSET", 40usize), 40);
        assert_eq!(parse_or("CAVM_ENVTEST_UNSET", 0.08f64), 0.08);
    }

    #[test]
    fn set_values_parse() {
        std::env::set_var("CAVM_ENVTEST_OK_USIZE", "12");
        assert_eq!(parse_or("CAVM_ENVTEST_OK_USIZE", 40usize), 12);
        std::env::set_var("CAVM_ENVTEST_OK_F64", " 0.25 ");
        assert_eq!(parse_or("CAVM_ENVTEST_OK_F64", 0.08f64), 0.25);
        std::env::set_var("CAVM_ENVTEST_OK_STR", "azure.csv");
        assert_eq!(
            parse_or("CAVM_ENVTEST_OK_STR", String::from("default")),
            "azure.csv"
        );
    }

    #[test]
    #[should_panic(expected = "CAVM_ENVTEST_BAD_USIZE=\"4O\": not a valid usize")]
    fn malformed_scalar_names_variable_and_value() {
        std::env::set_var("CAVM_ENVTEST_BAD_USIZE", "4O");
        parse_or("CAVM_ENVTEST_BAD_USIZE", 40usize);
    }

    #[test]
    #[should_panic(expected = "CAVM_ENVTEST_BAD_F64=\"fast\": not a valid f64")]
    fn malformed_float_names_variable_and_value() {
        std::env::set_var("CAVM_ENVTEST_BAD_F64", "fast");
        parse_or("CAVM_ENVTEST_BAD_F64", 0.08f64);
    }
}

//! The results directory `all` writes its reports into.

use std::path::PathBuf;

/// The `results/` directory `all` writes into: by default the paper
/// tier's golden directory, the repo root's `results/`
/// ([`crate::Tier::golden_dir`], anchored at the crate manifest, so
/// output lands in the repo regardless of working directory); relocatable
/// via `LEVIOSO_RESULTS_DIR` (integration tests point it at a temp dir so
/// a spawned `all` never touches the committed results).
pub fn results_dir() -> PathBuf {
    parse_results_dir(std::env::var("LEVIOSO_RESULTS_DIR").ok().as_deref())
}

/// Parses a `LEVIOSO_RESULTS_DIR` value: unset or empty means the repo
/// root's `results/`, like every other `LEVIOSO_*` variable (an empty
/// path would write the reports into the working directory); anything
/// else is the directory.
fn parse_results_dir(value: Option<&str>) -> PathBuf {
    match value {
        None | Some("") => crate::Tier::Paper.golden_dir(),
        Some(dir) => PathBuf::from(dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn results_dir_env_parsing_treats_empty_as_unset() {
        let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        assert_eq!(parse_results_dir(None), repo_results);
        assert_eq!(parse_results_dir(Some("")), repo_results);
        assert_eq!(parse_results_dir(Some("reports")), PathBuf::from("reports"));
    }
}

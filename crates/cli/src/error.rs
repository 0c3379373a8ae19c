//! The CLI's top-level error type and its process exit codes.
//!
//! Every failure path in `run` converts (usually via `From`) into one
//! [`CliError`] variant, and each variant maps to a distinct exit code
//! so scripts and CI can tell *why* an invocation failed without
//! parsing stderr. `lint` is the exception: it exits with the codes of
//! `mppm_analyze::cli`, which `mppm-analyze` shares (rows 1 and 2).
//!
//! | code | meaning                                                   |
//! |------|-----------------------------------------------------------|
//! | 1    | invalid input: unknown benchmark, bandwidth not positive, partition that does not fit the LLC; `lint --deny` violations |
//! | 2    | usage error, set in `main`: a malformed flag or request field, or a campaign count given as 0; `lint` without a readable workspace |
//! | 3    | model error (the daemon's `model` code)                   |
//! | 4    | campaign error ([`mppm_campaign::CampaignError`])         |
//! | 5    | store / trace / CSV I/O error                             |
//! | 6    | server error (`mppmd` / `client` transport, daemon)       |
//!
//! Codes 1 and 3 are the request checks `mppmd` answers with
//! `bad-request` and `model`: the one-shot verbs run the same checks.

use mppm_server::protocol::{codes, ProtoError};
use std::fmt;

/// Everything the `mppm-cli` commands can fail with.
#[derive(Debug)]
pub enum CliError {
    /// User input that parsed but does not make sense (unknown
    /// benchmark, inconsistent partition, ...).
    Invalid(String),
    /// The analytical model rejected the request.
    Model(String),
    /// A campaign failed (spec validation, journal I/O, mix space).
    Campaign(mppm_campaign::CampaignError),
    /// Filesystem I/O: the store, a recorded trace, CSVs, a JSONL trace.
    Io(std::io::Error),
    /// The `mppmd` daemon or its client failed: bind/connect errors,
    /// protocol violations, or daemon-reported error frames.
    Server(mppm_server::ServerError),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Invalid(_) => 1,
            CliError::Model(_) => 3,
            // A wire-version mismatch between coordinator and campaign
            // workers is a protocol failure, same class as the daemon's.
            CliError::Campaign(mppm_campaign::CampaignError::Protocol(_)) => 6,
            CliError::Campaign(_) => 4,
            CliError::Io(_) => 5,
            CliError::Server(_) => 6,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Invalid(msg) => write!(f, "{msg}"),
            CliError::Model(msg) => write!(f, "model error: {msg}"),
            CliError::Campaign(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Server(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Invalid(_) | CliError::Model(_) => None,
            CliError::Campaign(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::Server(e) => Some(e),
        }
    }
}

impl From<ProtoError> for CliError {
    fn from(e: ProtoError) -> Self {
        match e.code {
            codes::MODEL => CliError::Model(e.message),
            _ => CliError::Invalid(e.message),
        }
    }
}

impl From<mppm_campaign::CampaignError> for CliError {
    fn from(e: mppm_campaign::CampaignError) -> Self {
        CliError::Campaign(e)
    }
}

impl From<mppm_server::ServerError> for CliError {
    fn from(e: mppm_server::ServerError) -> Self {
        CliError::Server(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Invalid(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Invalid(msg.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let io = CliError::from(std::io::Error::other("disk"));
        let cases = [
            (CliError::Invalid("bad".into()).exit_code(), 1),
            (CliError::from(ProtoError::bad("unknown benchmark")).exit_code(), 1),
            (CliError::from(ProtoError::from(mppm::ModelError::EmptyWorkload)).exit_code(), 3),
            (
                CliError::Campaign(mppm_campaign::CampaignError::InvalidSpec("x".into()))
                    .exit_code(),
                4,
            ),
            (io.exit_code(), 5),
            (
                CliError::Server(mppm_server::ServerError::Protocol("x".into())).exit_code(),
                6,
            ),
            (
                CliError::Campaign(mppm_campaign::CampaignError::Protocol(
                    mppm_campaign::ProtocolMismatch { found: 0, expected: 1 },
                ))
                .exit_code(),
                6,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn display_carries_the_cause() {
        let e = CliError::from(ProtoError::from(mppm::ModelError::EmptyWorkload));
        assert!(e.to_string().contains("model error"));
        let e = CliError::from("unknown benchmark `nope`".to_string());
        assert_eq!(e.to_string(), "unknown benchmark `nope`");
        let e = CliError::from(mppm_server::ServerError::Remote {
            code: "campaign".into(),
            message: "journal I/O".into(),
        });
        assert!(e.to_string().contains("campaign"), "{e}");
    }
}

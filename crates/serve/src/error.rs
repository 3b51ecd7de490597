//! Typed serving errors: every shed, rejection, and overflow is a variant,
//! so clients and tests can react to *why* a request failed rather than
//! pattern-matching strings.

use crate::request::SessionId;

/// Why the server refused or failed a request.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The admission queue is at capacity; the request was shed at submit
    /// time without entering the system.
    QueueFull {
        /// Requests pending when the submit was attempted.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// Opening another session would exceed the KV-cache budget and no
    /// idle session was evictable.
    SessionCapacity {
        /// Sessions currently resident.
        active: usize,
        /// Configured session capacity.
        capacity: usize,
    },
    /// The session's KV context was LRU-evicted under session-budget
    /// pressure; its lineage is gone and the session id is permanently
    /// dead (a client must start a new session to continue).
    SessionEvicted {
        /// The evicted session.
        session: SessionId,
    },
    /// The session has consumed its whole context window; further decode
    /// steps would exceed the model's maximum sequence length.
    ContextOverflow {
        /// The offending session.
        session: SessionId,
        /// Tokens already consumed.
        position: usize,
        /// The model's maximum sequence length.
        max_len: usize,
    },
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The request's virtual-tick deadline passed while it was still
    /// queued: dispatching it could no longer meet the SLO, so the
    /// scheduler shed it instead of wasting capacity on a late answer.
    DeadlineExceeded {
        /// The request's absolute deadline (virtual ticks).
        deadline: u64,
        /// The virtual clock when the scheduler gave up on it.
        now: u64,
    },
    /// Shed by the graceful-degradation ladder under sustained overload
    /// (best-effort decode past the length cap, best-effort work refused
    /// to protect KV headroom, or sub-interactive prefill shed outright).
    Degraded {
        /// Overload level when the shed happened (1 = elevated, 2 = severe).
        level: u8,
        /// Which rung of the ladder fired.
        reason: &'static str,
    },
    /// The request itself is malformed (a decode token outside the model
    /// vocabulary); it was rejected at submit time without entering the
    /// system.
    InvalidRequest {
        /// The offending token id.
        token: usize,
        /// The model's vocabulary size.
        vocab: usize,
    },
}

impl ServeError {
    /// Stable small integer per variant, folded into response
    /// fingerprints so error outcomes are part of the determinism
    /// contract too.
    pub fn code(&self) -> u8 {
        match self {
            ServeError::QueueFull { .. } => 1,
            ServeError::SessionCapacity { .. } => 2,
            ServeError::ContextOverflow { .. } => 3,
            ServeError::ShuttingDown => 4,
            ServeError::SessionEvicted { .. } => 5,
            ServeError::DeadlineExceeded { .. } => 6,
            ServeError::Degraded { .. } => 7,
            ServeError::InvalidRequest { .. } => 8,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "queue full: {depth} pending >= capacity {capacity}")
            }
            ServeError::SessionCapacity { active, capacity } => {
                write!(
                    f,
                    "session budget exhausted: {active}/{capacity} resident, none evictable"
                )
            }
            ServeError::ContextOverflow {
                session,
                position,
                max_len,
            } => write!(
                f,
                "session {session} context overflow: position {position} >= max_len {max_len}"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::SessionEvicted { session } => {
                write!(f, "session {session} was evicted; its KV context is gone")
            }
            ServeError::DeadlineExceeded { deadline, now } => {
                write!(
                    f,
                    "deadline exceeded: due tick {deadline}, virtual clock already at {now}"
                )
            }
            ServeError::Degraded { level, reason } => {
                write!(f, "shed by degradation ladder (level {level}: {reason})")
            }
            ServeError::InvalidRequest { token, vocab } => {
                write!(
                    f,
                    "invalid request: token {token} outside vocabulary {vocab}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_display_is_informative() {
        let errs = [
            ServeError::QueueFull {
                depth: 9,
                capacity: 8,
            },
            ServeError::SessionCapacity {
                active: 4,
                capacity: 4,
            },
            ServeError::ContextOverflow {
                session: 3,
                position: 64,
                max_len: 64,
            },
            ServeError::ShuttingDown,
            ServeError::SessionEvicted { session: 7 },
            ServeError::DeadlineExceeded {
                deadline: 4,
                now: 6,
            },
            ServeError::Degraded {
                level: 2,
                reason: "decode-length-cap",
            },
            ServeError::InvalidRequest {
                token: 99,
                vocab: 64,
            },
        ];
        let mut codes: Vec<u8> = errs.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
        assert!(errs[0].to_string().contains("queue full"));
        assert!(errs[2].to_string().contains("overflow"));
        assert!(errs[5].to_string().contains("deadline exceeded"));
        assert!(errs[6].to_string().contains("degradation"));
        assert_eq!(errs[7].code(), 8);
        assert!(errs[7]
            .to_string()
            .contains("token 99 outside vocabulary 64"));
    }
}

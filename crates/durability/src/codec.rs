//! Wire format for command-log records.
//!
//! One record = one fused admission run = a batch of committed
//! transactions. The per-program encoding lives in [`orthrus_txn::codec`]
//! (shared with the TCP front-end); this module adds the run-level
//! framing: a transaction count, then per transaction an optional client
//! ticket id followed by the program. Decode-validated — though in
//! practice decoding only ever sees checksum-clean payloads (the byte
//! layer drops torn or corrupt tails before records reach this module).

use orthrus_txn::codec::{decode_program, encode_program, Reader};
use orthrus_txn::Program;

/// Re-exported so recovery callers keep one error type. The payload
/// passed its checksum but does not parse — a format bug or version
/// skew, not a crash artifact. Recovery treats it like a tear (stop at
/// the longest well-formed prefix).
pub use orthrus_txn::codec::DecodeError;

/// One committed transaction as logged: the program (command logging —
/// effects are *not* logged) plus the client ticket id when the commit
/// was a ticketed session submission (`None` for closed-loop synthetic
/// work). Tickets let recovery audits prove exactly-once replay against
/// the live run's completion ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedCommit {
    pub ticket: Option<u64>,
    pub program: Program,
}

/// Append a run's record — payload framed and checksummed as the byte
/// layer stores it — to `out`, ready for
/// [`crate::CommandLog::append_frames`]. Returns the framed byte count.
pub fn frame_run(txns: &[LoggedCommit], out: &mut Vec<u8>) -> u64 {
    orthrus_storage::log::frame_record(out, |payload| encode_run(txns, payload))
}

/// Append a run's record payload to `out` (unframed; see
/// [`frame_run`]).
pub fn encode_run(txns: &[LoggedCommit], out: &mut Vec<u8>) {
    out.extend_from_slice(&(txns.len() as u32).to_le_bytes());
    for t in txns {
        match t.ticket {
            None => out.push(0),
            Some(id) => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        encode_program(&t.program, out);
    }
}

/// Decode one record payload.
pub fn decode_run(bytes: &[u8]) -> Result<Vec<LoggedCommit>, DecodeError> {
    let mut r = Reader::new(bytes);
    let n = r.u32()?;
    // Bound the preallocation: a garbage count must fail on parse, not
    // abort on a multi-gigabyte reserve (growth is amortized anyway).
    let mut txns = Vec::with_capacity(n.min(4096) as usize);
    for _ in 0..n {
        let ticket = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            other => return Err(DecodeError(format!("bad ticket flag {other}"))),
        };
        let program = decode_program(&mut r)?;
        txns.push(LoggedCommit { ticket, program });
    }
    if r.remaining() != 0 {
        return Err(DecodeError(format!(
            "{} trailing bytes after {n} transactions",
            r.remaining()
        )));
    }
    Ok(txns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_txn::{
        CustomerSelector, DeliveryInput, NewOrderInput, OrderLineInput, OrderStatusInput,
        PaymentInput, StockLevelInput,
    };

    fn sample_programs() -> Vec<Program> {
        vec![
            Program::ReadOnly { keys: vec![] },
            Program::ReadOnly { keys: vec![7, 1] },
            Program::Rmw {
                keys: vec![u64::MAX, 0, 42],
            },
            Program::NewOrder(NewOrderInput {
                w: 3,
                d: 9,
                c: 2999,
                lines: vec![
                    OrderLineInput {
                        i_id: 77,
                        supply_w: 3,
                        qty: 10,
                    },
                    OrderLineInput {
                        i_id: 1,
                        supply_w: 4,
                        qty: 1,
                    },
                ],
            }),
            Program::Payment(PaymentInput {
                w: 1,
                d: 2,
                amount_cents: 499_999,
                customer: CustomerSelector::ById {
                    c_w: 0,
                    c_d: 1,
                    c: 8,
                },
            }),
            Program::Payment(PaymentInput {
                w: 0,
                d: 0,
                amount_cents: 1,
                customer: CustomerSelector::ByLastName {
                    c_w: 2,
                    c_d: 3,
                    name_id: 999,
                },
            }),
            Program::OrderStatus(OrderStatusInput {
                customer: CustomerSelector::ByLastName {
                    c_w: 1,
                    c_d: 0,
                    name_id: 4,
                },
            }),
            Program::Delivery(DeliveryInput { w: 7, carrier: 10 }),
            Program::StockLevel(StockLevelInput {
                w: 2,
                d: 5,
                threshold: 17,
                depth: 20,
            }),
        ]
    }

    #[test]
    fn every_program_variant_roundtrips() {
        let txns: Vec<LoggedCommit> = sample_programs()
            .into_iter()
            .enumerate()
            .map(|(i, program)| LoggedCommit {
                ticket: if i % 2 == 0 {
                    Some(i as u64 * 31)
                } else {
                    None
                },
                program,
            })
            .collect();
        let mut buf = Vec::new();
        encode_run(&txns, &mut buf);
        assert_eq!(decode_run(&buf).unwrap(), txns);
    }

    #[test]
    fn empty_run_roundtrips() {
        let mut buf = Vec::new();
        encode_run(&[], &mut buf);
        assert_eq!(decode_run(&buf).unwrap(), vec![]);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = Vec::new();
        encode_run(
            &[LoggedCommit {
                ticket: None,
                program: Program::Rmw { keys: vec![1] },
            }],
            &mut buf,
        );
        buf.push(0xEE);
        assert!(decode_run(&buf).is_err());
    }

    #[test]
    fn cut_payload_is_rejected_not_misread() {
        let mut buf = Vec::new();
        encode_run(
            &[LoggedCommit {
                ticket: Some(5),
                program: Program::Rmw {
                    keys: vec![1, 2, 3],
                },
            }],
            &mut buf,
        );
        for cut in 1..buf.len() {
            assert!(
                decode_run(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0); // no ticket
        buf.push(250); // bogus program tag
        assert!(decode_run(&buf).is_err());
    }
}

//! Cross-crate pin of the lossless-acceleration guarantee's stopping
//! rule: speculative and incremental decoding stop at the same EOS only
//! if the engine and the workloads agree on which token it is. The
//! guarantee itself — greedy speculation emits exactly the incremental
//! sequence, serial or batched, in every mode and pool — is a contract of
//! `tests/oracle.rs`.

use specinfer::spec::EngineConfig;
use specinfer::workloads::EOS_TOKEN;

#[test]
fn eos_convention_is_consistent_across_crates() {
    // `EngineConfig::greedy_tree` hard-codes the workloads EOS so the two
    // crates stay decoupled; this pin breaks if either side drifts.
    let cfg = EngineConfig::greedy_tree();
    assert_eq!(cfg.eos_token, Some(EOS_TOKEN));
}

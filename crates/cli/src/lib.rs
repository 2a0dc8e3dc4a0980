//! Implementation of the `specinfer` command-line tool.
//!
//! The CLI drives the whole system end to end on the synthetic language:
//!
//! ```text
//! specinfer train   --out llm.ckpt --epochs 6
//! specinfer distill --teacher llm.ckpt --out ssm.ckpt --epochs 7
//! specinfer boost   --teacher llm.ckpt --out-dir pool --n 3
//! specinfer generate --llm llm.ckpt --ssm ssm.ckpt --mode tree --tokens 48
//! specinfer serve   --llm llm.ckpt --ssm ssm.ckpt --requests 16 --batch 8
//! specinfer inspect --ckpt llm.ckpt
//! ```
//!
//! Argument parsing is deliberately dependency-free; every subcommand is
//! a function in [`commands`] so tests can call them directly.

pub mod args;
pub mod commands;

/// Entry point shared by `main` and tests.
///
/// # Errors
///
/// Returns a human-readable message for bad usage or failed I/O.
pub fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or_else(usage)?;
    match cmd.as_str() {
        "train" => commands::train(&args::Parsed::new(rest)?),
        "distill" => commands::distill(&args::Parsed::new(rest)?),
        "boost" => commands::boost(&args::Parsed::new(rest)?),
        "generate" => commands::generate(&args::Parsed::new(rest)?),
        "serve" => commands::serve(&args::Parsed::new(rest)?),
        "inspect" => commands::inspect(&args::Parsed::new(rest)?),
        "help" | "-h" | "--help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

pub(crate) fn usage() -> String {
    "usage: specinfer <subcommand> [--flag value]…\n\
     subcommands:\n\
       train     --out FILE [--epochs N] [--seed S] [--arch tiny-llm|tiny-ssm|smoke]\n\
       distill   --teacher FILE --out FILE [--epochs N] [--seed S]\n\
       boost     --teacher FILE --out-dir DIR [--n K] [--epochs N]\n\
       generate  --llm FILE [--ssm FILE]… [--mode MODE]\n\
                 [--dataset alpaca|cp|webqa|cip|piqa] [--tokens N] [--stochastic]\n\
                 [--audit] [--seed S]\n\
       serve     --llm FILE --ssm FILE [--mode MODE] [--requests N] [--batch B] [--tokens N]\n\
       inspect   --ckpt FILE\n\
     modes: incremental | sequence (depth 8) | tree (paper default) | dynamic\n\
       | adaptive (depth-4 sequences, each step routed to one --ssm)"
        .to_string()
}

//! The untraced run: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    ftbench::cli::main(false)
}

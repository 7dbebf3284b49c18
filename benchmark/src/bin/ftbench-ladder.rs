//! The traced run: per-layer metrics, with every allocation counted.

#[global_allocator]
static ALLOCATOR: ftbench::alloc::CountingAlloc = ftbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    ftbench::cli::main(true)
}

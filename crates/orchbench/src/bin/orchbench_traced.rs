//! The traced binary: the same command line with the counting allocator
//! installed, which the traced pass needs for allocations per stage.

#[global_allocator]
static COUNTING: orchbench::adapter::CountingAllocator = orchbench::adapter::CountingAllocator;

fn main() -> std::process::ExitCode {
    orchbench::cli::main()
}

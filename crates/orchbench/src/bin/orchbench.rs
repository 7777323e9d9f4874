//! The untraced binary: no allocation hook of any kind is installed, so
//! end-to-end numbers are measured in the program as users run it.

fn main() -> std::process::ExitCode {
    orchbench::cli::main()
}

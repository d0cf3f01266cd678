//! The benchmark program under the system allocator: runner, untraced
//! children and layer drivers.

fn main() -> std::process::ExitCode {
    radar_benchmark::cli::main()
}

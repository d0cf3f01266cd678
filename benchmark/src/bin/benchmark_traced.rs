//! The same program with allocator traffic counted, for the traced
//! child only: no end-to-end number is measured in this binary.

#[global_allocator]
static COUNTING: radar_bench::timing::CountingAlloc = radar_bench::timing::CountingAlloc;

fn main() -> std::process::ExitCode {
    radar_benchmark::cli::main()
}

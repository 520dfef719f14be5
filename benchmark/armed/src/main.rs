//! The benchmark linked against the product's `trace` feature: the only
//! difference from the plain binary is the dependency feature set.

fn main() {
    nautix_benchmark::main()
}

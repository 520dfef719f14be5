fn main() {
    nautix_benchmark::main()
}

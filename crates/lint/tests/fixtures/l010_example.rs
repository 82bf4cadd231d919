//! L010 fixture: an example, read only for the names it calls.

fn main() {
    println!("{}", demo::from_example());
}

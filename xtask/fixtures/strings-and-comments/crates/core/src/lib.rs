//! Fixture: every ported lint's trigger pattern, confined to string
//! literals and comments, where the token-level engine must never match.
//!
//! Doc-comment mentions are inert too: `.unwrap()`, `panic!(..)`,
//! `HashMap`, `Instant::now()`, `Mutex`, `vec![..]`, `// hot-path`.

/// Trigger patterns quoted in an ordinary string.
pub const QUOTED: &str = "x.unwrap() y.expect(\"no\") panic!(boom) HashMap HashSet Instant SystemTime thread_rng Mutex mpsc std::thread::spawn(f) v as u32 Vec::new() vec![1].clone()";

/// Trigger patterns in a raw string — unbalanced braces included, which
/// would desync a line-based `#[cfg(test)]` span scan.
pub const RAW: &str = r#"} .unwrap() panic!( "HashMap" as usize Mutex::new(()) { // hot-path"#;

// Plain comment: .unwrap() panic!( HashMap Instant::now() Mutex vec![ as u32 spawn
/* Block comment, spanning lines:
   .unwrap() .expect("x") panic!(no) HashSet SystemTime::now() mpsc::channel()
   as VertexId Vec::new() .clone() */

/// Lifetimes and char literals must not confuse the string lexer: a stray
/// quote char here would swallow the rest of the file as a "string".
pub fn first<'a>(s: &'a str) -> Option<char> {
    let q: char = '"';
    s.chars().next().filter(|&c| c != q)
}

/// Returns the quoted text lengths.
pub fn lens() -> (usize, usize) {
    (QUOTED.len(), RAW.len())
}

//! L009 fixture, codec side: encode sites for `ALPHA` and `BETA`, a
//! decode match arm for `ALPHA` only. Note `tag_name` maps names to tags
//! with the tag on the *right* of `=>` — that must not count as decode
//! coverage.

pub fn encode_alpha() -> Encoder {
    Encoder::new(kind::ALPHA)
}

pub fn encode_beta() -> Encoder {
    Encoder::new(kind::BETA)
}

pub fn decode(tag: u16) -> Artifact {
    match tag {
        kind::ALPHA => decode_alpha(),
        _ => Artifact::Unknown,
    }
}

pub fn tag_name(name: &str) -> u16 {
    match name {
        "orphan" => kind::ORPHAN,
        _ => 0,
    }
}

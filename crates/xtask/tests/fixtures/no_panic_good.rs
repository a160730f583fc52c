//! Known-good fixture for KDD001: the same shapes, panic-free. Linted as
//! crate `core`; must produce zero violations.

/// A typed error instead of a panic.
#[derive(Debug)]
pub struct ShortHeader;

pub fn decode_header(b: &[u8]) -> Result<(u64, u32), ShortHeader> {
    let lba = b
        .get(..8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_le_bytes)
        .ok_or(ShortHeader)?;
    let slot = b
        .get(8..12)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map(u32::from_le_bytes)
        .ok_or(ShortHeader)?;
    Ok((lba, slot))
}

// Mentions of unwrap() in comments must not fire, nor "panic!" in strings.
pub fn describe() -> &'static str {
    "this string says panic! and .unwrap() but is data, not code"
}

/// Doc example — doc tests run as tests, so `unwrap()` here is fine:
/// ```
/// let v: Option<u8> = Some(1);
/// assert_eq!(v.unwrap(), 1);
/// ```
pub fn documented() {}

pub fn waived(b: &[u8]) -> u64 {
    // kdd-lint: allow(no-panic) -- caller checked b.len() >= 8 one frame up
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

pub fn waived_by_id(b: &[u8]) -> u64 {
    // kdd-waiver(KDD001): the shorthand form; same check one frame up
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

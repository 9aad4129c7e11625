//! Offline shim for `serde`.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim uses a
//! simple owned value tree ([`Value`]): `Serialize` renders a type into a
//! [`Value`] and `Deserialize` rebuilds the type from one. The companion
//! `serde_json` shim converts between [`Value`] and JSON text. The derive
//! macros (re-exported from `serde_derive`) generate these impls for structs
//! and enums, including `#[serde(skip)]` fields and externally tagged enum
//! variants, which is exactly the shape of every serializable type in this
//! workspace.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::HashMap;

/// Serialization data model: a JSON-shaped owned tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / `None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (negative values).
    Int(i128),
    /// Unsigned integer.
    UInt(u128),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Key-ordered map (insertion order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Looks up a field in a map value (helper for derived code).
pub fn get_field<'a>(map: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error with a custom message.
    pub fn custom(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Renders `self` into the data model.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the data model.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: u128 = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u128,
                    other => return Err(DeError::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other))),
                };
                <$t>::try_from(n).map_err(|_| DeError::custom(
                    concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i128;
                if n >= 0 { Value::UInt(n as u128) } else { Value::Int(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: i128 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i128::try_from(*n).map_err(|_| {
                        DeError::custom("integer too large for signed type")
                    })?,
                    other => return Err(DeError::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other))),
                };
                <$t>::try_from(n).map_err(|_| DeError::custom(
                    concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    other => Err(DeError::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            other => Err(DeError::custom(format!("expected char, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::custom(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|got| DeError::custom(format!("expected array of {N}, got {}", got.len())))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let seq = v.as_seq().ok_or_else(|| DeError::custom("expected tuple sequence"))?;
                let expected = [$($idx),+].len();
                if seq.len() != expected {
                    return Err(DeError::custom(format!(
                        "expected tuple of {expected}, got {}", seq.len())));
                }
                Ok(($($name::from_value(&seq[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple!((A: 0)(A: 0, B: 1)(A: 0, B: 1, C: 2)(A: 0, B: 1, C: 2, D: 3));

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Maps with non-string keys serialize as entry sequences; maps are
        // only used in skipped fields in this workspace, so ordering is not
        // significant.
        let mut entries: Vec<Value> = self
            .iter()
            .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
            .collect();
        entries.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        Value::Seq(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(u64::from_value(&7u64.to_value()), Ok(7));
        assert_eq!(i32::from_value(&(-3i32).to_value()), Ok(-3));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u8>::from_value(&Value::UInt(3)), Ok(Some(3)));
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()), Ok(v));
        let arr = [1.0f64, 2.0];
        assert_eq!(<[f64; 2]>::from_value(&arr.to_value()), Ok(arr));
        let pair = (1usize, true);
        assert_eq!(<(usize, bool)>::from_value(&pair.to_value()), Ok(pair));
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(bool::from_value(&Value::UInt(1)).is_err());
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(Vec::<u8>::from_value(&Value::Bool(true)).is_err());
    }
}

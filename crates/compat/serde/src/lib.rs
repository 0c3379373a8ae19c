//! Offline stand-in for the `serde` crate.
//!
//! Instead of serde's visitor-based zero-copy data model, this shim uses a
//! simple owned [`Value`] tree (the JSON data model): [`Serialize`] turns a
//! type into a `Value`, [`Deserialize`] reads it back. The sibling
//! `serde_json` shim serializes `Value` to JSON text and back, and the
//! `serde_derive` shim derives both traits for plain named-field structs
//! and unit-variant enums — exactly the shapes this workspace stores.

pub use serde_derive::{Deserialize, Serialize};

mod value;

pub use value::{Number, Value};

/// Error produced when a [`Value`] does not match the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Error for a type mismatch at a known location.
    pub fn expected(what: &str, got: &Value) -> Self {
        DeError(format!("expected {what}, found {}", got.kind()))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types convertible into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` into a [`Value`] tree.
    fn to_value(&self) -> Value;

    /// `self` as a [`Value`] tree to read: a [`Value`] lends itself
    /// rather than building a copy.
    fn as_value(&self) -> std::borrow::Cow<'_, Value> {
        std::borrow::Cow::Owned(self.to_value())
    }
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Reads `Self` out of a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] when the value's shape does not match.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Deserialization helpers module, mirroring `serde::de`.
pub mod de {
    pub use crate::DeError;

    /// Marker for owned deserialization; every [`crate::Deserialize`]
    /// qualifies (this shim has no borrowed variant).
    pub trait DeserializeOwned: crate::Deserialize {}

    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_u64().ok_or_else(|| DeError::expected(stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_i64().ok_or_else(|| DeError::expected(stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("f64", v))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.as_f64().ok_or_else(|| DeError::expected("f32", v))? as f32)
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
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str().map(str::to_string).ok_or_else(|| DeError::expected("string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> std::borrow::Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize, S: std::hash::BuildHasher> Serialize for std::collections::HashMap<String, T, S> {
    fn to_value(&self) -> Value {
        // Sorted keys so serialized maps are byte-stable across runs.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(keys.into_iter().map(|k| (k.clone(), self[k].to_value())).collect())
    }
}

impl<T: Deserialize, S: std::hash::BuildHasher + Default> Deserialize
    for std::collections::HashMap<String, T, S>
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), T::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("object", other)),
        }
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::BTreeMap<String, T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), T::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("object", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> std::borrow::Cow<'_, Value> {
        std::borrow::Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Support plumbing for the derive macros; not public API.
#[doc(hidden)]
pub mod __private {
    use super::{DeError, Deserialize, Value};

    /// Shared null for "field missing" lookups.
    pub static NULL: Value = Value::Null;

    /// Looks up a struct field, treating a missing key as JSON null (so
    /// `Option` fields default to `None`, as with real serde).
    pub fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
        v.get(name).unwrap_or(&NULL)
    }

    /// Deserializes one struct field with error context.
    pub fn de_field<T: Deserialize>(
        v: &Value,
        ty: &str,
        name: &str,
    ) -> Result<T, DeError> {
        T::from_value(field(v, name))
            .map_err(|e| DeError(format!("{ty}.{name}: {}", e.0)))
    }

    /// Deserializes a `#[serde(default)]` field: missing or null uses the
    /// type's `Default`.
    pub fn de_field_default<T: Deserialize + Default>(
        v: &Value,
        ty: &str,
        name: &str,
    ) -> Result<T, DeError> {
        match v.get(name) {
            Some(val) if !matches!(val, Value::Null) => T::from_value(val)
                .map_err(|e| DeError(format!("{ty}.{name}: {}", e.0))),
            _ => Ok(T::default()),
        }
    }
}
